"""Alternating proximal gradient training of weights and quantization centers.

One step alternates: (1) gradient of f(x) + f(Qs(x)) in x followed by the
soft-threshold prox, (2) gradient of f(Qs(x)) in the centers, evaluated at
the fresh x, followed by the surrogate center prox. A linear ramp may drive
the regularization weight, and an optional fine-tuning phase freezes the
quantized coordinates on their centers (tracking further center motion)
while exempt coordinates and the centers keep training. The returned model
is the hard-quantized final iterate.

One step kernel serves every trainer: the federated local update is the
same step plus the coupling gradient lambda_p * (x - w), and fine-tuning is
the same step with pinned assignments. One per-step record likewise builds
the metrics of both the centralized and the federated trainers.

Runs are single-threaded and deterministic: identical inputs produce
bitwise-identical results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import RoundMetrics, evaluate_accuracy
from .losses import (
    QuantLayout,
    eval_F_i_grouped,
    hard_quantize_grouped,
    loss_quant_gradient_c,
    loss_quant_gradient_x,
)
from .proxops import ProxParams, prox_c, prox_x
from .quantizer import CenterVector, QuantConfig, center_list, quantize_assignments
from .rng import Rng

__all__ = [
    "LambdaSchedule",
    "HyperParams",
    "TrainResult",
    "DivergenceError",
    "centralized_step",
    "run_centralized",
    "stationarity_gap",
    "safe_step_sizes",
    "init_weights",
    "init_centers_from_weights",
]


class DivergenceError(RuntimeError):
    """Raised when the objective blows past the divergence threshold."""


@dataclass(frozen=True)
class LambdaSchedule:
    """Regularization weight as a function of the step index.

    kinds: ``constant`` (always ``value``), ``linear`` (``base * t`` capped at
    ``cap``), ``piecewise`` (staircase over ``points`` = ((step, value), ...)).
    """

    kind: str = "constant"
    value: float = 0.0
    base: float = 0.0
    cap: float = float("inf")
    points: tuple[tuple[int, float], ...] = ()

    @classmethod
    def constant(cls, value: float) -> "LambdaSchedule":
        return cls(kind="constant", value=value)

    @classmethod
    def linear(cls, base: float, cap: float = float("inf")) -> "LambdaSchedule":
        return cls(kind="linear", base=base, cap=cap)

    @classmethod
    def piecewise(cls, points) -> "LambdaSchedule":
        pts = tuple((int(s), float(v)) for s, v in points)
        if not pts or pts[0][0] != 0:
            raise ValueError("piecewise schedule must start at step 0")
        return cls(kind="piecewise", points=pts)

    def lam(self, t: int) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "linear":
            return min(self.base * t, self.cap)
        if self.kind == "piecewise":
            out = self.points[0][1]
            for step, val in self.points:
                if t >= step:
                    out = val
            return out
        raise ValueError(f"unknown schedule kind: {self.kind}")


@dataclass(frozen=True)
class HyperParams:
    """Step sizes, schedules and sizes for a training run.

    ``eta2 = 0`` freezes the centers (used by the frozen-center baseline);
    ``eta3`` and ``lambda_p`` only matter to the federated protocol.
    ``fine_tune_start = None`` disables fine-tuning. ``eta2_decay`` is an
    optional staircase of multiplicative factors ((step, factor), ...).
    """

    eta1: float
    eta2: float
    steps: int
    eta3: float = 0.0
    lambda_schedule: LambdaSchedule = field(default_factory=lambda: LambdaSchedule.constant(0.0))
    lambda_p: float = 0.0
    tau: int = 1
    fine_tune_start: int | None = None
    quant_cfg: QuantConfig = field(default_factory=lambda: QuantConfig(hard_limit=True))
    eta2_decay: tuple[tuple[int, float], ...] | None = None
    divergence_factor: float = 1e6
    metrics_every: int = 1
    batch_size: int | None = None
    flip_w_update_sign: bool = False
    checkpoint_every: int | None = None

    def __post_init__(self):
        if not (self.eta1 > 0 and np.isfinite(self.eta1)):
            raise ValueError("eta1 must be positive")
        if self.eta2 < 0 or self.eta3 < 0 or self.lambda_p < 0:
            raise ValueError("eta2, eta3 and lambda_p must be nonnegative")
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

    def lam(self, t: int) -> float:
        return self.lambda_schedule.lam(t)

    def eta2_at(self, t: int) -> float:
        if self.eta2_decay is None:
            return self.eta2
        factor = 1.0
        for step, f in self.eta2_decay:
            if t >= step:
                factor = f
        return self.eta2 * factor

    def ft_start(self) -> int:
        return self.steps if self.fine_tune_start is None else self.fine_tune_start

    def config_hash(self) -> str:
        blob = json.dumps(
            {
                "eta1": self.eta1, "eta2": self.eta2, "eta3": self.eta3,
                "lambda": [self.lambda_schedule.kind, self.lambda_schedule.value,
                           self.lambda_schedule.base, self.lambda_schedule.cap,
                           list(self.lambda_schedule.points)],
                "lambda_p": self.lambda_p, "tau": self.tau, "steps": self.steps,
                "fine_tune_start": self.fine_tune_start,
                "quant": [self.quant_cfg.sharpness, self.quant_cfg.hard_limit],
                "eta2_decay": list(self.eta2_decay) if self.eta2_decay else None,
                "batch_size": self.batch_size,
                "flip_w_update_sign": self.flip_w_update_sign,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class TrainResult:
    """Final full-precision iterate, centers, hard-quantized model, history."""

    x_final: np.ndarray
    centers_final: list[CenterVector]
    x_hard: np.ndarray
    history: list[RoundMetrics]


# ---------------------------------------------------------------------------
# the step kernel and per-step record (shared by the centralized and federated trainers)


def _grad_step_loss(loss, hp: HyperParams, rng: Rng | None):
    """Loss used for gradients this step: full loss, or a minibatch view."""
    if hp.batch_size is None:
        return loss
    if rng is None:
        raise ValueError("minibatch mode needs an explicit rng")
    n = loss.n_samples
    b = min(hp.batch_size, n)
    idx = np.sort(rng.sample(n, b))
    return loss.subset(idx)


def _step(x, centers, pinned, loss, layout, hp: HyperParams, t: int, rng: Rng | None,
          coupling=None):
    """Alg. lines 2-5: prox-gradient in x, then in the centers.

    ``pinned`` (fine-tuning) holds per-group assignments: those coordinates
    ride their centers instead of taking the x-prox, before and after the
    center step. ``coupling`` is the federated term lambda_p * (x - w).
    """
    gl = _grad_step_loss(loss, hp, rng)
    lam_t = hp.lam(t)
    eta2_t = hp.eta2_at(t)
    cfg = hp.quant_cfg
    pins = [None] * len(layout.groups) if pinned is None else pinned

    g = gl.gradient(x) + loss_quant_gradient_x(gl, x, centers, layout, cfg)
    if coupling is not None:
        g = g + coupling
    x_new = x - hp.eta1 * g
    px = ProxParams(eta=hp.eta1, lam=lam_t)
    for (start, stop), c, assign in zip(layout.groups, centers, pins):
        x_new[start:stop] = prox_x(x_new[start:stop], c, px) if assign is None else c.values[assign]

    if eta2_t == 0.0:
        return x_new, list(centers)
    h_list = loss_quant_gradient_c(gl, x_new, centers, layout, cfg)
    pc = ProxParams(eta=eta2_t, lam=lam_t)
    centers_new = []
    for (start, stop), c, h, assign in zip(layout.groups, centers, h_list, pins):
        c_new = prox_c(c.values - eta2_t * h, x_new[start:stop], c, pc)
        centers_new.append(c_new)
        if assign is not None:
            x_new[start:stop] = c_new.values[assign]
    return x_new, centers_new


def _pin_if_due(x, centers, pinned, layout, hp: HyperParams, t: int):
    """At ``fine_tune_start``, snap quantized coordinates onto their centers and pin them."""
    if pinned is not None or t != hp.ft_start() or not layout.groups:
        return x, pinned
    x = np.array(x, dtype=np.float64)
    pinned = []
    for (start, stop), c in zip(layout.groups, centers):
        assign = quantize_assignments(x[start:stop], c)
        pinned.append(assign)
        x[start:stop] = c.values[assign]
    return x, pinned


def _at_cadence(hp: HyperParams, t: int) -> bool:
    return t % hp.metrics_every == 0 or t == hp.steps - 1


def _record(t: int, hp: HyperParams, loss, layout, test, x, centers, x_prev, centers_prev,
            w, lambda_p: float, f0: float, client_id: int | None = None) -> RoundMetrics:
    """Metrics of the step-t iterate; DivergenceError past ``divergence_factor`` * max(1, |F_0|)."""
    ev = eval_F_i_grouped(loss, x, centers, layout, w, hp.quant_cfg, hp.lam(t), lambda_p)
    if not np.isfinite(ev.total) or ev.total > hp.divergence_factor * max(1.0, abs(f0)):
        who = "objective" if client_id is None else f"client {client_id} objective"
        raise DivergenceError(
            f"{who} diverged at step {t}: total={ev.total!r}, initial={f0!r}, "
            f"|x|={float(np.max(np.abs(x)))!r}"
        )
    gap = stationarity_gap(x_prev, x, centers_prev, centers, hp)
    acc = evaluate_accuracy(loss, x, test) if test is not None and _at_cadence(hp, t) else None
    return RoundMetrics(
        step=t, f_x=ev.f_x, f_q=ev.f_q, reg=ev.reg, prox_penalty=ev.prox_penalty,
        total=ev.total, stationarity_gap=gap, w_drift=0.0, quant_error=ev.quant_error,
        test_acc=acc,
    )


def centralized_step(state, loss, hp: HyperParams, t: int,
                     layout: QuantLayout | None = None):
    """One full-batch alternating prox-gradient step on (x, c); returns the new pair.

    ``c`` is one CenterVector or a list per group, and comes back in the same
    form. With ``hp.batch_size`` set it raises, having no stream to draw from.
    """
    x, c = state
    if layout is None:
        layout = QuantLayout.full(loss.dim)
    x_new, centers_new = _step(np.asarray(x, dtype=np.float64), layout.check_centers(c), None,
                               loss, layout, hp, t, None)
    return (x_new, centers_new[0] if isinstance(c, CenterVector) else centers_new)


def stationarity_gap(x_prev, x_next, c_prev, c_next, hp: HyperParams) -> float:
    """Prox-residual stationarity measure ||z_next - z_prev||^2 / min(eta)^2."""
    dx = np.asarray(x_next, dtype=np.float64) - np.asarray(x_prev, dtype=np.float64)
    total = float(dx @ dx)
    for cp, cn in zip(center_list(c_prev), center_list(c_next)):
        dc = cn.values - cp.values
        total += float(dc @ dc)
    eta_min = hp.eta1 if hp.eta2 == 0 else min(hp.eta1, hp.eta2)
    return total / (eta_min * eta_min)


def _write_checkpoint(path, step, x, centers, rng, hp):
    payload = {
        "step": step,
        "x": [float(v) for v in x],
        "c": [[float(v) for v in c.values] for c in centers],
        "rng_state": list(rng.getstate()) if rng is not None else None,
        "hyperparams_hash": hp.config_hash(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def run_centralized(loss, init_x, init_c, hp: HyperParams, *,
                    layout: QuantLayout | None = None, test=None, rng: Rng | None = None,
                    checkpoint_path=None) -> TrainResult:
    """Run the full alternating scheme for ``hp.steps`` steps.

    ``init_c`` may be a single CenterVector (whole-vector quantization) or a
    list matching ``layout.groups``. ``test`` enables accuracy metrics every
    ``hp.metrics_every`` steps for classifier losses. ``rng`` draws the
    minibatches and is advanced. Aborts with DivergenceError when the
    objective exceeds ``divergence_factor`` times max(1, |F_0|).
    """
    if layout is None:
        layout = QuantLayout.full(loss.dim)
    centers = layout.check_centers(init_c)
    x = np.array(init_x, dtype=np.float64)
    if x.shape != (loss.dim,):
        raise ValueError("init_x dimension does not match the loss")

    f0 = eval_F_i_grouped(loss, x, centers, layout, x, hp.quant_cfg, hp.lam(0), 0.0).total
    history: list[RoundMetrics] = []
    pinned = None

    for t in range(hp.steps):
        x, pinned = _pin_if_due(x, centers, pinned, layout, hp, t)
        x_prev, centers_prev = x, centers
        x, centers = _step(x, centers, pinned, loss, layout, hp, t, rng)
        rec = _record(t, hp, loss, layout, test, x, centers, x_prev, centers_prev, x, 0.0, f0)
        if _at_cadence(hp, t):
            rec.kappa_round = 0.0
        history.append(rec)
        if checkpoint_path is not None and hp.checkpoint_every:
            if (t + 1) % hp.checkpoint_every == 0:
                _write_checkpoint(checkpoint_path, t + 1, x, centers, rng, hp)

    x_hard = hard_quantize_grouped(x, centers, layout)
    return TrainResult(x_final=x, centers_final=centers, x_hard=x_hard, history=history)


# ---------------------------------------------------------------------------
# step-size estimation ("safe mode")


def _power_iteration(hvp, dim, rng: Rng, iters: int = 30) -> float:
    v = rng.normal(dim)
    v /= max(np.linalg.norm(v), 1e-12)
    eig = 0.0
    for _ in range(iters):
        w = hvp(v)
        nw = np.linalg.norm(w)
        if nw < 1e-14:
            return 0.0
        eig = float(v @ w)
        v = w / nw
    return abs(eig)


def safe_step_sizes(loss, x0, centers0, hp_template: HyperParams | None = None, *,
                    layout: QuantLayout | None = None, cfg: QuantConfig | None = None,
                    lambda_p: float = 0.0, seed: int = 314, n_probes: int = 3,
                    safety: float = 2.0) -> tuple[float, float]:
    """Estimate smoothness constants and return eta1 = 1/(2 Lx), eta2 = 1/(2 Lc).

    Curvature of x -> f(x) + f(Qs(x)) (plus the coupling strength 2*lambda_p
    in the federated case) and of c -> f(Qs(x)) is measured by power
    iteration on finite-difference Hessian-vector products of the analytic
    gradients, maximized over probe points, then inflated by ``safety``.
    Probes cover the start point, its hard-quantized image, random
    perturbations, and (in soft mode) points pushed onto the center
    midpoints where the quantizer's curvature peaks.
    """
    if cfg is None:
        cfg = hp_template.quant_cfg if hp_template is not None else QuantConfig(hard_limit=True)
    if layout is None:
        layout = QuantLayout.full(loss.dim)
    centers = layout.check_centers(centers0)
    rng = Rng(seed)
    x0 = np.asarray(x0, dtype=np.float64)
    eps = 1e-5

    def grad_x(x):
        return loss.gradient(x) + loss_quant_gradient_x(loss, x, centers, layout, cfg)

    def grad_c_flat(cvals_list):
        cvs = [CenterVector(np.sort(v), c_max=c.c_max) for v, c in zip(cvals_list, centers)]
        return loss_quant_gradient_c(loss, x0, cvs, layout, cfg)

    probes = [x0, hard_quantize_grouped(x0, centers, layout)]
    probes += [x0 + 0.3 * rng.normal(x0.size) for _ in range(n_probes - 1)]
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


def init_weights(dim: int, rng: Rng, scale: float = 0.5) -> np.ndarray:
    """Seeded uniform(-scale, scale) initialization of the parameter vector."""
    return rng.uniform(-scale, scale, dim)


def init_centers_from_weights(x_group: np.ndarray, m: int, c_max: float = 10.0) -> CenterVector:
    """Centers at the m empirical quantiles (j - 1/2)/m of the group's weights."""
    from .proxops import _strictly_increasing

    x_group = np.asarray(x_group, dtype=np.float64)
    qs = (np.arange(1, m + 1) - 0.5) / m
    vals = np.quantile(x_group, qs)
    vals = np.clip(vals, -c_max, c_max)
    # enforce strict sortedness for degenerate groups
    span = max(float(vals[-1] - vals[0]), 1e-3)
    for j in range(1, m):
        if vals[j] <= vals[j - 1]:
            vals[j] = min(vals[j - 1] + 1e-6 * span, c_max)
    return CenterVector(_strictly_increasing(vals, c_max), c_max=c_max)
