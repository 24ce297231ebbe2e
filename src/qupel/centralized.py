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
the metrics of every trainer. A centralized run is one client of the
trainer loop in ``qupel.federated``, run without the server.

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

from .diagnostics import RoundMetrics, evaluate_accuracy, write_atomic
from .losses import (
    QuantLayout,
    eval_F_i_grouped,
    hard_quantize_grouped,
    loss_quant_gradient_c,
    loss_quant_gradient_x,
)
from .proxops import ProxParams, prox_c, prox_x
from .quantizer import CenterVector, QuantConfig
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


def _check_steps(points, name: str) -> None:
    # _staircase keeps the last point whose step has passed, so the steps must increase
    if any(a >= b for (a, _), (b, _) in zip(points, points[1:])):
        raise ValueError(f"{name} steps must be strictly increasing")


def _staircase(points, t: int, before: float) -> float:
    """Value of the last ``(step, value)`` point with step <= t; ``before`` ahead of them all."""
    out = before
    for step, value in points:
        if t >= step:
            out = value
    return out


def _peak(points, last: int, before: float) -> float:
    """Largest ``_staircase(points, t, before)`` over 0 <= t <= last; it moves only at a point."""
    return max(_staircase(points, t, before) for t in (0, *(s for s, _ in points if s <= last)))


@dataclass(frozen=True)
class LambdaSchedule:
    """Regularization weight as a function of the step index:
    ``lam(t) = min(base * t + staircase(points, t), cap)``.

    ``points`` = ((step, value), ...) starts at step 0. The factories set one
    part each: ``constant(v)`` is the point (0, v), ``linear(base, cap)`` a
    capped ramp, ``piecewise(points)`` a staircase.
    """

    base: float = 0.0
    cap: float = float("inf")
    points: tuple[tuple[int, float], ...] = ((0, 0.0),)

    def __post_init__(self):
        if not all(0.0 <= v < np.inf for v in (self.base, *(v for _, v in self.points))):
            raise ValueError("lambda values must be finite and >= 0")
        if not self.cap >= 0.0:
            raise ValueError("lambda cap must be >= 0 or +inf")
        if not self.points or self.points[0][0] != 0:
            raise ValueError("lambda points must start at step 0")
        _check_steps(self.points, "lambda schedule")

    @classmethod
    def constant(cls, value: float) -> "LambdaSchedule":
        return cls(points=((0, value),))

    @classmethod
    def linear(cls, base: float, cap: float = float("inf")) -> "LambdaSchedule":
        return cls(base=base, cap=cap)

    @classmethod
    def piecewise(cls, points) -> "LambdaSchedule":
        return cls(points=tuple((int(s), float(v)) for s, v in points))

    def lam(self, t: int) -> float:
        return min(self.base * t + _staircase(self.points, t, 0.0), self.cap)


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
    lambda_schedule: LambdaSchedule = field(default_factory=LambdaSchedule)
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
        decay = self.eta2_decay or ()
        if not all(0.0 <= f < np.inf for _, f in decay):
            raise ValueError("eta2_decay factors must be finite and >= 0")
        _check_steps(decay, "eta2_decay")
        if self.steps:  # the run's largest lambda(t) and eta2(t) bound every product
            sched, last = self.lambda_schedule, self.steps - 1
            lam_max = min(sched.base * last + _peak(sched.points, last, 0.0), sched.cap)
            eta2_max = self.eta2 * _peak(decay, last, 1.0)
            if not np.isfinite([eta2_max, lam_max * self.eta1, lam_max * eta2_max]).all():
                raise ValueError("lambda(t) * eta1, lambda(t) * eta2(t) and eta2(t) must stay "
                                 "finite for every step of the run")

    def lam(self, t: int) -> float:
        return self.lambda_schedule.lam(t)

    def eta2_at(self, t: int) -> float:
        if self.eta2_decay is None:
            return self.eta2
        return self.eta2 * _staircase(self.eta2_decay, t, 1.0)

    def ft_start(self) -> int:
        return self.steps if self.fine_tune_start is None else self.fine_tune_start

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class TrainResult:
    """Final full-precision iterate, centers, hard-quantized model, history."""

    x_final: np.ndarray
    centers_final: list[CenterVector]
    x_hard: np.ndarray
    history: list[RoundMetrics]


# ---------------------------------------------------------------------------
# the step kernel and per-step record (used by the one trainer loop in qupel.federated)


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
    if not np.isfinite(x_new).all():  # before prox_x snaps a NaN; _record raises on it
        return x_new, list(centers)
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


def _at_cadence(hp: HyperParams, t: int) -> bool:
    return t % hp.metrics_every == 0 or t == hp.steps - 1


def _record(t: int, hp: HyperParams, loss, layout, test, x, centers, x_prev, centers_prev,
            w, lambda_p: float, f0: float, limit: float, client_id: int) -> RoundMetrics:
    """Metrics of the step-t iterate; DivergenceError past the client's finite ``limit``."""
    ev = eval_F_i_grouped(loss, x, centers, layout, w, hp.quant_cfg, hp.lam(t), lambda_p)
    if not np.isfinite(ev.total) or ev.total > limit:
        raise DivergenceError(
            f"client {client_id} objective diverged at step {t}: total={ev.total!r}, "
            f"initial={f0!r}, |x|={float(np.max(np.abs(x)))!r}"
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

    ``x`` must be finite; a step that overflows returns a non-finite one. ``c`` is
    one CenterVector or a list per group, and comes back as a list. With
    ``hp.batch_size`` set it raises, having no stream to draw from.
    """
    x, c = np.asarray(state[0], dtype=np.float64), state[1]
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    if layout is None:
        layout = QuantLayout.full(loss.dim)
    return _step(x, layout.check_centers(c), None, loss, layout, hp, t, None)


def stationarity_gap(x_prev, x_next, c_prev, c_next, hp: HyperParams) -> float:
    """Prox-residual stationarity measure ||z_next - z_prev||^2 / min(eta)^2; centers as lists."""
    dx = np.asarray(x_next, dtype=np.float64) - np.asarray(x_prev, dtype=np.float64)
    total = float(dx @ dx)
    for cp, cn in zip(c_prev, c_next):
        dc = cn.values - cp.values
        total += float(dc @ dc)
    eta_min = hp.eta1 if hp.eta2 == 0 else min(hp.eta1, hp.eta2)
    return total / (eta_min * eta_min)


def _write_checkpoint(path, step, cs, hp):
    """``cs``'s state after ``step`` steps (a ``qupel.federated.ClientState``)."""
    payload = {
        "step": step,
        "x": [float(v) for v in cs.x],
        "c": [[float(v) for v in c.values] for c in cs.centers],
        "rng_state": list(cs.data_rng.getstate()) if cs.data_rng is not None else None,
        "hyperparams_hash": hp.config_hash(),
    }
    write_atomic(path, [json.dumps(payload)])


def run_centralized(loss, init_x, init_c, hp: HyperParams, *,
                    layout: QuantLayout | None = None, test=None, rng: Rng | None = None,
                    checkpoint_path=None) -> TrainResult:
    """Run the full alternating scheme for ``hp.steps`` steps.

    ``init_c`` may be a single CenterVector (whole-vector quantization) or a
    list matching ``layout.groups``. ``test`` enables accuracy metrics every
    ``hp.metrics_every`` steps for classifier losses. ``rng`` draws the
    minibatches and is advanced. Aborts with DivergenceError when the
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
