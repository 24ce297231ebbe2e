"""Simulated federated protocol with personalized quantized models.

Each of n clients holds a personalized model x_i, its own quantization
centers c_i (possibly of different length per client, i.e. different
precision), and a local copy w_i of the global model. Every simulated step,
every client performs one local alternating prox update; on steps divisible
by the synchronization gap tau (including step 0) the server first averages
the w_i in ascending client-id order and broadcasts the mean. The coupling
term lambda_p * (x_i - w_i) enters the client's weight gradient, and w_i is
then moved toward the fresh personalized model.

The w update descends the coupling penalty,
``w_i <- w_i + eta3 * lambda_p * (x_i - w_i)``.

The step kernel (``_step``: the x prox step, then the center prox step) and
``client_local_step`` (the kernel plus the coupling and the w update) live
here beside the one trainer loop, ``_train``, which pins and steps every
client, then records them all; its metrics cadence, divergence rule and
checkpoint writer sit beside it. What a run is configured by and returns
(``HyperParams``, ``TrainResult``) lives in ``qupel.centralized``. The server
is the mean ``sync_round`` returns and runs only under ``run_qupel``;
``run_local_only`` is the loop without it, at lambda_p = 0, and
``run_centralized`` is that loop on one client. With lambda_p = 0 the w
exchange cannot influence (x_i, c_i), so a QuPeL run is bitwise-identical to
local-only training: the kernel skips the coupling. ``run_fedavg`` keeps its
own loop, on its own array of global-model copies, and stops under
``_train``'s divergence rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .centralized import DivergenceError, HyperParams, TrainResult, stationarity_gap
from .diagnostics import RoundMetrics, evaluate_accuracy, write_atomic
from .losses import (
    QuantLayout,
    _hard_assign_grouped,
    eval_F_i_grouped,
    hard_quantize_grouped,
    loss_quant_gradient_c,
    loss_quant_gradient_x,
)
from .proxops import ProxParams, prox_c, prox_x
from .quantizer import CenterVector
from .rng import Rng

__all__ = [
    "ClientState",
    "QupelResult",
    "client_local_step",
    "sync_round",
    "run_qupel",
    "run_fedavg",
    "run_local_only",
    "estimate_diversity",
]


@dataclass
class ClientState:
    """One client's personalized model, centers, local global-model copy and data."""

    id: int
    x: np.ndarray
    centers: list[CenterVector]
    w_local: np.ndarray
    loss: object
    layout: QuantLayout | None = None
    test: object | None = None
    data_rng: Rng | None = None
    pinned: list[np.ndarray] | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.w_local = np.asarray(self.w_local, dtype=np.float64)
        if self.layout is None:
            self.layout = QuantLayout.full(self.loss.dim)
        self.centers = self.layout.check_centers(self.centers)
        if self.x.shape != (self.loss.dim,) or self.w_local.shape != self.x.shape:
            raise ValueError("client model and global copy must share the loss dimension")


def _pin(cs: ClientState, hp: HyperParams, t: int) -> ClientState:
    """At ``fine_tune_start``, snap the quantized coordinates onto their centers and pin them."""
    if cs.pinned is not None or t != hp.ft_start() or not cs.layout.groups:
        return cs
    x, pinned = _hard_assign_grouped(cs.x, cs.centers, cs.layout)
    return replace(cs, x=x, pinned=pinned)


def _grad_step_loss(loss, hp: HyperParams, rng: Rng | None):
    """Loss used for gradients this step: full loss, or a minibatch view."""
    if hp.batch_size is None:
        return loss
    if rng is None:
        raise ValueError("minibatch mode needs an explicit rng")
    n = loss.n_samples
    return loss.subset(np.sort(rng.sample(n, min(hp.batch_size, n))))


def _step(x, centers, pinned, loss, layout, hp: HyperParams, t: int, rng: Rng | None,
          coupling=None):
    """Alg. lines 2-5: a gradient step on f(x) + f(Qs(x)) in x and the soft-threshold
    prox, then one on f(Qs(x)) in the centers at the fresh x and the surrogate center prox.

    ``pinned`` (fine-tuning) holds per-group assignments: those coordinates
    ride their centers instead of taking the x-prox, before and after the
    center step. ``coupling`` is the federated term lambda_p * (x - w).
    """
    gl = _grad_step_loss(loss, hp, rng)
    lam_t = hp.lam(t)
    cfg = hp.quant_cfg
    pins = [None] * len(layout.groups) if pinned is None else pinned

    g = gl.gradient(x) + loss_quant_gradient_x(gl, x, centers, layout, cfg)
    if coupling is not None:
        g = g + coupling
    x_new = x - hp.eta1 * g
    if not np.isfinite(x_new).all():  # before prox_x snaps a NaN; _train raises on it
        return x_new, list(centers)
    px = ProxParams(eta=hp.eta1, lam=lam_t)
    for (start, stop), c, assign in zip(layout.groups, centers, pins):
        x_new[start:stop] = prox_x(x_new[start:stop], c, px) if assign is None else c.values[assign]

    if hp.eta2 == 0.0:
        return x_new, list(centers)
    h_list = loss_quant_gradient_c(gl, x_new, centers, layout, cfg)
    pc = ProxParams(eta=hp.eta2, lam=lam_t)
    centers_new = []
    for (start, stop), c, h, assign in zip(layout.groups, centers, h_list, pins):
        c_new = prox_c(c.values - hp.eta2 * h, x_new[start:stop], c, pc)
        centers_new.append(c_new)
        if assign is not None:
            x_new[start:stop] = c_new.values[assign]
    return x_new, centers_new


def client_local_step(cs: ClientState, hp: HyperParams, t: int) -> ClientState:
    """One local update of (x_i, c_i, w_i); advances only this client's data_rng."""
    cs = _pin(cs, hp, t)
    coupling = hp.lambda_p * (cs.x - cs.w_local) if hp.lambda_p != 0.0 else None
    x_new, centers_new = _step(cs.x, cs.centers, cs.pinned, cs.loss, cs.layout, hp, t,
                               cs.data_rng, coupling=coupling)
    if hp.lambda_p == 0.0 or hp.eta3 == 0.0:
        w_new = cs.w_local
    else:
        w_new = cs.w_local + hp.eta3 * hp.lambda_p * (x_new - cs.w_local)
    return replace(cs, x=x_new, centers=centers_new, w_local=w_new)


def sync_round(clients: list[ClientState]):
    """Average the local global-model copies (ascending id) and broadcast;
    returns ``(clients, w_mean)``, each client holding its own copy of the mean."""
    ordered = sorted(clients, key=lambda c: c.id)
    if len({c.w_local.shape for c in ordered}) != 1:
        raise ValueError("clients disagree on the global model dimension")
    w_mean = np.mean(np.stack([c.w_local for c in ordered]), axis=0)
    return [replace(c, w_local=w_mean.copy()) for c in clients], w_mean


def estimate_diversity(clients: list[ClientState], w_global: np.ndarray,
                       lambda_p: float) -> np.ndarray:
    """Per-client squared deviation kappa_i of the w-gradient lambda_p * (w_global - x_i)
    from the mean of them all, in ascending id order."""
    ordered = sorted(clients, key=lambda c: c.id)
    grads = np.stack([lambda_p * (w_global - c.x) for c in ordered])
    mean = grads.mean(axis=0)
    return np.array([float(np.sum((g - mean) ** 2)) for g in grads])


@dataclass
class QupelResult:
    per_client: list[TrainResult]
    global_history: list[dict]
    w_global: np.ndarray | None  # the mean of the last sync; None if no sync ran


def _at_cadence(hp: HyperParams, t: int) -> bool:
    return t % hp.metrics_every == 0 or t == hp.steps - 1


def _divergence_limit(hp: HyperParams, f0: float, who: str) -> float:
    """``divergence_factor * max(1, |F_0|)``, which must be finite for the check to hold."""
    limit = hp.divergence_factor * max(1.0, abs(f0))
    if not np.isfinite(limit):
        raise DivergenceError(f"{who} cannot start: divergence threshold {limit!r} "
                              f"is not finite (initial={f0!r})")
    return limit


def _check_objective(who: str, t: int, total: float, f0: float, limit: float, x) -> None:
    """DivergenceError if the step-t objective ``total`` is not finite or exceeds ``limit``."""
    if not np.isfinite(total) or total > limit:
        raise DivergenceError(f"{who} objective diverged at step {t}: total={total!r}, "
                              f"initial={f0!r}, |x|={float(np.max(np.abs(x)))!r}")


def _write_checkpoint(path, step, cs: ClientState, hp: HyperParams) -> None:
    """``cs``'s state after ``step`` steps, with the hash of the caller's ``hp``."""
    payload = {
        "step": step,
        "x": [float(v) for v in cs.x],
        "c": [[float(v) for v in c.values] for c in cs.centers],
        "rng_state": list(cs.data_rng.getstate()) if cs.data_rng is not None else None,
        "hyperparams_hash": hp.config_hash(),
    }
    write_atomic(path, [json.dumps(payload)])


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends the run as a DivergenceError
def _train(clients: list[ClientState], hp: HyperParams, *, federated: bool,
           checkpoint_path=None) -> QupelResult:
    """The one trainer loop. ``federated`` adds the server: sync every tau steps,
    coupling and w update, ``w_drift``, ``kappa_round`` and ``global_history``.
    Without it every client steps at lambda_p = 0, so ``client_local_step`` skips the
    coupling and keeps w_local. The starting x and w_local and each client's divergence
    threshold are checked once here; the kernel checks each step.

    Each step runs four phases: (1) the sync, federated only; (2) pin and step every
    client, then check each objective in id order, so a divergence is raised after the
    whole step; (3) at the metrics cadence, the test accuracies and, federated only,
    kappa once; (4) each client's record, then the server record, from values in hand."""
    clients = sorted(clients, key=lambda c: c.id)
    for cs in clients:
        if not (np.isfinite(cs.x).all() and np.isfinite(cs.w_local).all()):
            raise ValueError(f"client {cs.id}: starting x and w_local must be finite")
    step_hp = hp if federated else replace(hp, lambda_p=0.0)  # checkpoints keep hp's hash
    w_global = None
    f0 = [eval_F_i_grouped(cs.loss, cs.x, cs.centers, cs.layout, cs.w_local, hp.quant_cfg,
                           hp.lam(0), step_hp.lambda_p).total for cs in clients]
    limits = [_divergence_limit(hp, f, f"client {cs.id}") for cs, f in zip(clients, f0)]
    histories: list[list[RoundMetrics]] = [[] for _ in clients]
    global_history: list[dict] = []

    for t in range(hp.steps):
        sync_dev = None
        if federated and t % hp.tau == 0:
            clients, w_global = sync_round(clients)
            sync_dev = max(float(np.max(np.abs(c.w_local - w_global))) for c in clients)

        before = [_pin(cs, hp, t) for cs in clients]  # the gap measures the step, not the pin
        clients = [client_local_step(cs, step_hp, t) for cs in before]
        evs = [eval_F_i_grouped(cs.loss, cs.x, cs.centers, cs.layout, cs.w_local,
                                hp.quant_cfg, hp.lam(t), step_hp.lambda_p) for cs in clients]
        for cs, ev, f, limit in zip(clients, evs, f0, limits):
            _check_objective(f"client {cs.id}", t, ev.total, f, limit, cs.x)

        at_cadence = _at_cadence(hp, t)
        kappa_i = estimate_diversity(clients, w_global, hp.lambda_p).tolist() \
            if federated and at_cadence else [0.0 if at_cadence else None] * len(clients)
        accs = [evaluate_accuracy(cs.loss, cs.x, cs.test)
                if cs.test is not None and at_cadence else None for cs in clients]

        for hist, old, cs, ev, acc, kappa in zip(histories, before, clients, evs, accs, kappa_i):
            hist.append(RoundMetrics(
                step=t, f_x=ev.f_x, f_q=ev.f_q, reg=ev.reg, prox_penalty=ev.prox_penalty,
                total=ev.total, quant_error=ev.quant_error, test_acc=acc,
                stationarity_gap=stationarity_gap(old.x, cs.x, old.centers, cs.centers, hp),
                w_drift=float(np.sum((cs.w_local - w_global) ** 2)) if federated else 0.0,
                kappa_round=kappa,
            ))
        if federated:
            record = {"step": t, "synced": sync_dev is not None, "post_sync_dev": sync_dev}
            w_stack = np.stack([c.w_local for c in clients])
            w_mean = w_stack.mean(axis=0)
            record["consensus_drift"] = float(np.mean(np.sum((w_stack - w_mean) ** 2, axis=1)))
            if at_cadence:
                record["kappa"] = float(np.mean(kappa_i))
                known = [a for a in accs if a is not None]
                record["mean_test_acc"] = float(np.mean(known)) if known else None
            global_history.append(record)
        if checkpoint_path is not None and hp.checkpoint_every \
                and (t + 1) % hp.checkpoint_every == 0:
            _write_checkpoint(checkpoint_path, t + 1, clients[0], hp)

    per_client = [TrainResult(x_final=cs.x, centers_final=cs.centers,
                              x_hard=hard_quantize_grouped(cs.x, cs.centers, cs.layout),
                              history=hist) for cs, hist in zip(clients, histories)]
    return QupelResult(per_client=per_client, global_history=global_history,
                       w_global=w_global)


def run_qupel(clients: list[ClientState], hp: HyperParams) -> QupelResult:
    """Run the personalized protocol for ``hp.steps`` steps.

    Every step performs one local update on every client (ascending id);
    steps divisible by tau, step 0 included, first synchronize the w_i
    through the server. The per-client results carry the hard-quantized models.
    """
    if not clients:
        raise ValueError("need at least one client")
    return _train(clients, hp, federated=True)


def run_local_only(clients: list[ClientState], hp: HyperParams) -> list[TrainResult]:
    """No-collaboration baseline: the trainer loop without the server.

    The first client to diverge, in (step, id) order, raises the DivergenceError.
    """
    return _train(clients, hp, federated=False).per_client


@np.errstate(over="ignore", invalid="ignore")  # as in _train
def run_fedavg(clients: list[ClientState], hp: HyperParams) -> TrainResult:
    """Full-precision FedAvg baseline on the plain client losses.

    Every step each client takes one gradient step on f_i from its copy of the
    global model, which starts at its ``w_local``; steps divisible by tau first
    average the copies. No ``ClientState`` is changed. A non-finite step raises a
    DivergenceError naming the client, as does, at the metrics cadence, a mean
    client loss at the averaged model past ``_train``'s threshold (F_0 at the first
    averaged model). The result holds the final averaged model (no quantization).
    """
    if not clients:
        raise ValueError("need at least one client")
    clients = sorted(clients, key=lambda c: c.id)
    ws = np.stack([cs.w_local for cs in clients])  # the global-model copies, one row per client
    history: list[RoundMetrics] = []
    for t in range(hp.steps):
        if t % hp.tau == 0:
            w_global = ws.mean(axis=0)
            ws[:] = w_global
            if t == 0:
                f0 = float(np.mean([cs.loss.value(w_global) for cs in clients]))
                limit = _divergence_limit(hp, f0, "fedavg")
        for pos, cs in enumerate(clients):
            ws[pos] -= hp.eta1 * _grad_step_loss(cs.loss, hp, cs.data_rng).gradient(ws[pos])
            if not np.isfinite(ws[pos]).all():
                raise DivergenceError(f"client {cs.id} diverged at step {t}: non-finite step")
        if _at_cadence(hp, t):
            w_mean = ws.mean(axis=0)  # evaluated, not broadcast
            mean_loss = float(np.mean([cs.loss.value(w_mean) for cs in clients]))
            _check_objective("fedavg", t, mean_loss, f0, limit, w_mean)
            accs = [evaluate_accuracy(cs.loss, w_mean, cs.test)
                    for cs in clients if cs.test is not None]
            acc = float(np.mean(accs)) if accs else None
            history.append(RoundMetrics(  # fedavg computes no quantized or coupled terms
                step=t, f_x=mean_loss, f_q=None, reg=None, prox_penalty=None,
                total=mean_loss, stationarity_gap=None, w_drift=None, quant_error=None,
                test_acc=acc, kappa_round=None,
            ))
    w_final = ws.mean(axis=0)
    return TrainResult(x_final=w_final, centers_final=[], x_hard=w_final.copy(),
                       history=history)
