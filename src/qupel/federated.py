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
``w_i <- w_i + eta3 * lambda_p * (x_i - w_i)``; the penalty-ascending
variant is available behind ``flip_w_update_sign`` for comparison with the
alternative sign convention.

One trainer loop, ``_train``, pins, steps (``client_local_step``) and
records every client at every step; its metrics cadence, divergence rule and
checkpoint writer sit beside it. The server is the mean ``sync_round`` returns
and runs only under ``run_qupel``; ``run_local_only`` is the loop without it,
at lambda_p = 0, and ``run_centralized`` is that loop on one client. With
lambda_p = 0 the w exchange cannot influence (x_i, c_i), so a QuPeL run is
bitwise-identical to local-only training: the kernel skips the coupling.
``run_fedavg`` keeps its own loop, on the clients' ``w_local``, averaging with
``sync_round``'s mean, ``_mean_w``, and stopping under ``_train``'s divergence rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .centralized import (
    DivergenceError,
    HyperParams,
    TrainResult,
    _grad_step_loss,
    _step,
    stationarity_gap,
)
from .diagnostics import RoundMetrics, evaluate_accuracy, write_atomic
from .losses import QuantLayout, _hard_assign_grouped, eval_F_i_grouped, hard_quantize_grouped
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


def client_local_step(cs: ClientState, hp: HyperParams, t: int) -> ClientState:
    """One local update of (x_i, c_i, w_i); advances only this client's data_rng."""
    cs = _pin(cs, hp, t)
    coupling = hp.lambda_p * (cs.x - cs.w_local) if hp.lambda_p != 0.0 else None
    x_new, centers_new = _step(cs.x, cs.centers, cs.pinned, cs.loss, cs.layout, hp, t,
                               cs.data_rng, coupling=coupling)
    if hp.lambda_p == 0.0 or hp.eta3 == 0.0:
        w_new = cs.w_local
    elif hp.flip_w_update_sign:
        w_new = cs.w_local - hp.eta3 * hp.lambda_p * (x_new - cs.w_local)
    else:
        w_new = cs.w_local + hp.eta3 * hp.lambda_p * (x_new - cs.w_local)
    return replace(cs, x=x_new, centers=centers_new, w_local=w_new)


def _mean_w(clients: list[ClientState]) -> np.ndarray:
    """The mean of the local global-model copies, in ascending id order."""
    ordered = sorted(clients, key=lambda c: c.id)
    if len({c.w_local.shape for c in ordered}) != 1:
        raise ValueError("clients disagree on the global model dimension")
    return np.mean(np.stack([c.w_local for c in ordered]), axis=0)


def sync_round(clients: list[ClientState]):
    """Average the local global-model copies (ascending id) and broadcast;
    returns ``(clients, w_mean)``, each client holding its own copy of the mean."""
    w_mean = _mean_w(clients)
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
    threshold are checked once here; the kernel checks each step."""
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

        at_cadence = _at_cadence(hp, t)
        for pos, cs in enumerate(clients):
            cs = _pin(cs, hp, t)  # the gap then measures the prox step, not the pin jump
            new = client_local_step(cs, step_hp, t)
            ev = eval_F_i_grouped(cs.loss, new.x, new.centers, cs.layout, new.w_local,
                                  hp.quant_cfg, hp.lam(t), step_hp.lambda_p)
            _check_objective(f"client {cs.id}", t, ev.total, f0[pos], limits[pos], new.x)
            acc = evaluate_accuracy(cs.loss, new.x, cs.test) \
                if cs.test is not None and at_cadence else None
            histories[pos].append(RoundMetrics(
                step=t, f_x=ev.f_x, f_q=ev.f_q, reg=ev.reg, prox_penalty=ev.prox_penalty,
                total=ev.total, quant_error=ev.quant_error, test_acc=acc,
                stationarity_gap=stationarity_gap(cs.x, new.x, cs.centers, new.centers, hp),
                w_drift=float(np.sum((new.w_local - w_global) ** 2)) if federated else 0.0,
                kappa_round=0.0 if at_cadence and not federated else None,  # federated: below
            ))
            clients[pos] = new

        if federated:
            record = {"step": t, "synced": sync_dev is not None, "post_sync_dev": sync_dev}
            w_stack = np.stack([c.w_local for c in clients])
            w_mean = w_stack.mean(axis=0)
            record["consensus_drift"] = float(np.mean(np.sum((w_stack - w_mean) ** 2, axis=1)))
            if at_cadence:
                kappa_i = estimate_diversity(clients, w_global, hp.lambda_p)
                record["kappa"] = float(np.mean(kappa_i))
                for pos, hist in enumerate(histories):
                    hist[-1].kappa_round = float(kappa_i[pos])
                accs = [h[-1].test_acc for h in histories if h[-1].test_acc is not None]
                record["mean_test_acc"] = float(np.mean(accs)) if accs else None
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

    Every step each client takes one gradient step on f_i from its ``w_local``;
    steps divisible by tau first average the copies. A non-finite step raises a
    DivergenceError naming the client, as does, at the metrics cadence, a mean
    client loss at the averaged model past ``_train``'s threshold (F_0 at the first
    averaged model). The result holds the final averaged model (no quantization).
    """
    if not clients:
        raise ValueError("need at least one client")
    clients = sorted(clients, key=lambda c: c.id)
    history: list[RoundMetrics] = []
    for t in range(hp.steps):
        if t % hp.tau == 0:
            clients, w_global = sync_round(clients)
            if t == 0:
                f0 = float(np.mean([cs.loss.value(w_global) for cs in clients]))
                limit = _divergence_limit(hp, f0, "fedavg")
        for cs in clients:  # the copies sync_round made at t = 0, so updated in place
            grad = _grad_step_loss(cs.loss, hp, cs.data_rng).gradient(cs.w_local)
            cs.w_local = cs.w_local - hp.eta1 * grad
            if not np.isfinite(cs.w_local).all():
                raise DivergenceError(f"client {cs.id} diverged at step {t}: non-finite step")
        if _at_cadence(hp, t):
            w_mean = _mean_w(clients)  # evaluated, not broadcast
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
    w_final = _mean_w(clients)
    return TrainResult(x_final=w_final, centers_final=[], x_hard=w_final.copy(),
                       history=history)
