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
records (the one per-step record) every client at every step. The server
runs only under ``run_qupel``; ``run_local_only`` is the loop without it, at
lambda_p = 0, and ``run_centralized`` is that loop on one client. With
lambda_p = 0 the w exchange cannot influence (x_i, c_i), so a QuPeL run is
bitwise-identical to local-only training: the kernel skips the coupling.
``run_fedavg`` keeps its own loop, on the clients' ``w_local``, averaging with
``sync_round``'s mean, ``_mean_w``, and stopping under ``_train``'s divergence rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .centralized import (
    DivergenceError,
    HyperParams,
    TrainResult,
    _at_cadence,
    _check_objective,
    _divergence_limit,
    _grad_step_loss,
    _record,
    _step,
    _write_checkpoint,
)
from .diagnostics import RoundMetrics, evaluate_accuracy
from .losses import QuantLayout, _hard_assign_grouped, eval_F_i_grouped, hard_quantize_grouped
from .quantizer import CenterVector
from .rng import Rng

__all__ = [
    "ClientState",
    "ServerState",
    "DiversityEstimate",
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


@dataclass
class ServerState:
    w_global: np.ndarray
    round: int = 0


@dataclass(frozen=True)
class DiversityEstimate:
    """Per-client squared deviation of the w-gradient from the mean, and its average."""

    kappa_i: np.ndarray
    kappa: float


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


def sync_round(clients: list[ClientState], server: ServerState):
    """Average the local global-model copies (ascending id) and broadcast."""
    w_mean = _mean_w(clients)
    new_server = ServerState(w_global=w_mean, round=server.round + 1)
    new_clients = [replace(c, w_local=w_mean.copy()) for c in clients]
    return new_clients, new_server


def estimate_diversity(clients: list[ClientState], server: ServerState,
                       lambda_p: float) -> DiversityEstimate:
    """Spread of per-client w-gradients lambda_p * (w - x_i) around their mean."""
    ordered = sorted(clients, key=lambda c: c.id)
    grads = np.stack([lambda_p * (server.w_global - c.x) for c in ordered])
    mean = grads.mean(axis=0)
    kappa_i = np.array([float(np.sum((g - mean) ** 2)) for g in grads])
    return DiversityEstimate(kappa_i=kappa_i, kappa=float(np.mean(kappa_i)))


@dataclass
class QupelResult:
    per_client: list[TrainResult]
    global_history: list[dict]
    server: ServerState | None  # None without the server (local-only and centralized runs)
    clients: list[ClientState]


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
    server = ServerState(w_global=clients[0].w_local.copy()) if federated else None
    f0 = [eval_F_i_grouped(cs.loss, cs.x, cs.centers, cs.layout, cs.w_local, hp.quant_cfg,
                           hp.lam(0), step_hp.lambda_p).total for cs in clients]
    limits = [_divergence_limit(hp, f, f"client {cs.id}") for cs, f in zip(clients, f0)]
    histories: list[list[RoundMetrics]] = [[] for _ in clients]
    global_history: list[dict] = []

    for t in range(hp.steps):
        sync_dev = None
        if federated and t % hp.tau == 0:
            clients, server = sync_round(clients, server)
            sync_dev = max(float(np.max(np.abs(c.w_local - server.w_global))) for c in clients)

        for pos, cs in enumerate(clients):
            cs = _pin(cs, hp, t)  # the gap then measures the prox step, not the pin jump
            new = client_local_step(cs, step_hp, t)
            rec = _record(t, hp, cs.loss, cs.layout, cs.test, new.x, new.centers, cs.x,
                          cs.centers, new.w_local, step_hp.lambda_p, f0[pos], limits[pos], cs.id)
            if federated:
                rec.w_drift = float(np.sum((new.w_local - server.w_global) ** 2))
            elif _at_cadence(hp, t):
                rec.kappa_round = 0.0
            histories[pos].append(rec)
            clients[pos] = new

        if federated:
            record = {"step": t, "synced": sync_dev is not None, "post_sync_dev": sync_dev}
            w_stack = np.stack([c.w_local for c in clients])
            w_mean = w_stack.mean(axis=0)
            record["consensus_drift"] = float(np.mean(np.sum((w_stack - w_mean) ** 2, axis=1)))
            if _at_cadence(hp, t):
                div = estimate_diversity(clients, server, hp.lambda_p)
                record["kappa"] = div.kappa
                for pos, hist in enumerate(histories):
                    hist[-1].kappa_round = float(div.kappa_i[pos])
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
                       server=server, clients=clients)


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
    server = ServerState(w_global=clients[0].w_local.copy())
    history: list[RoundMetrics] = []
    for t in range(hp.steps):
        if t % hp.tau == 0:
            clients, server = sync_round(clients, server)
            if t == 0:
                f0 = float(np.mean([cs.loss.value(server.w_global) for cs in clients]))
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
            history.append(RoundMetrics(
                step=t, f_x=mean_loss, f_q=0.0, reg=0.0, prox_penalty=0.0,
                total=mean_loss, stationarity_gap=0.0, w_drift=0.0, quant_error=0.0,
                test_acc=acc, kappa_round=None,
            ))
    w_final = _mean_w(clients)
    return TrainResult(x_final=w_final, centers_final=[], x_hard=w_final.copy(),
                       history=history)
