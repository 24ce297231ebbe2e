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

The one trainer loop, ``_train``, holds the population as arrays, one row per
client in id order (``_Rows``): x and w as (n, dim), each group's centers as a
``CenterStack`` padded to the largest m, and the losses as one stack
(``stack_losses``). Each step is one call per operation for every client: the
step kernel ``_step`` (the x prox step, the center prox step and the w
update), then the objective, the stationarity gap, the server mean and kappa
over rows, and each client's record is built from those columns. In full-batch
mode a step that pins nothing takes its x-gradient from the objective at the
point it starts from, f0 included: that objective's loss passes give it, so the
step does not run them again. The per-client functions are the one-row case of
that code: ``client_local_step`` runs ``_step`` on one client, ``sync_round``
and ``estimate_diversity`` run the server mean and kappa on a list of clients.
What a run is configured by and returns (``HyperParams``, ``TrainResult``) lives
in ``qupel.centralized``.
The server runs only under ``run_qupel``; ``run_local_only`` is the loop
without it, at lambda_p = 0, and ``run_centralized`` is that loop on one
client. With lambda_p = 0 the w exchange cannot influence (x_i, c_i), so a
QuPeL run is bitwise-identical to local-only training: the kernel skips the
coupling. ``run_fedavg`` keeps its own loop, on its own array of global-model
copies, takes every client's gradient in one stacked pass and stops under
``_train``'s divergence rule. ``_step`` logs nothing: each ``_train`` run, or
``client_local_step`` call, logs its own center crossings as one WARNING.
"""

from __future__ import annotations

import json
from copy import deepcopy
from dataclasses import dataclass, replace

import numpy as np

from .centralized import DivergenceError, HyperParams, TrainResult, stationarity_gap_rows
from .diagnostics import evaluate_accuracy, write_atomic
from .losses import (
    QuantLayout,
    hard_quantize_rows,
    objective_rows,
    quant_gradient_c_rows,
    quant_gradient_x_rows,
    stack_losses,
)
from .proxops import _report_crossings, prox_c_rows, prox_x_rows
from .quantizer import CenterStack, CenterVector, assign_rows, take_rows
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


@dataclass
class _Rows:
    """A population's trainable state, one row per client in id order."""

    x: np.ndarray  # (n, dim) personalized models
    w: np.ndarray  # (n, dim) local copies of the global model
    centers: list[CenterStack]  # one per quantized group
    pinned: list[np.ndarray] | None  # per group, (n, group size) assignments once fine-tuning
    crossings: np.ndarray | None = None  # (n,) groups whose centers the last _step re-sorted


def _stack(clients: list[ClientState]) -> _Rows:
    """The clients' state as rows, in the order given; they must share one layout."""
    layout = clients[0].layout
    if any(cs.layout != layout for cs in clients):
        raise ValueError("clients disagree on the parameter layout")
    if len({cs.pinned is None for cs in clients}) != 1:
        raise ValueError("clients disagree on whether their assignments are pinned")
    groups = range(len(layout.groups))
    return _Rows(x=np.array([cs.x for cs in clients]), w=np.array([cs.w_local for cs in clients]),
                 centers=[CenterStack.of([cs.centers[g] for cs in clients]) for g in groups],
                 pinned=None if clients[0].pinned is None
                 else [np.stack([cs.pinned[g] for cs in clients]) for g in groups])


def _pins_at(rows: _Rows, layout: QuantLayout, hp: HyperParams, t: int) -> bool:
    """Whether ``_pin`` at step t changes these rows."""
    return rows.pinned is None and t == hp.ft_start() and bool(layout.groups)


def _pin(rows: _Rows, layout: QuantLayout, hp: HyperParams, t: int) -> _Rows:
    """At ``fine_tune_start``, snap the quantized coordinates onto their centers and pin them."""
    if not _pins_at(rows, layout, hp, t):
        return rows
    x, pinned = hard_quantize_rows(rows.x, rows.centers, layout)
    return replace(rows, x=x, pinned=pinned)


def _draw_batches(losses, hp: HyperParams, rngs) -> list[np.ndarray] | None:
    """Each client's minibatch rows for one step, drawn in id order from its own stream;
    None in full-batch mode."""
    if hp.batch_size is None:
        return None
    batches = []
    for loss, rng in zip(losses, rngs):
        if rng is None:
            raise ValueError("minibatch mode needs an explicit rng")
        n = loss.n_samples
        batches.append(np.sort(rng.sample(n, min(hp.batch_size, n))))
    return batches


def _step(rows: _Rows, losses, layout: QuantLayout, hp: HyperParams, t: int,
          batches=None, carried=None) -> _Rows:
    """Alg. lines 2-5 for every client at once: a gradient step on f(x) + f(Qs(x)) in x
    and the soft-threshold prox, then one on f(Qs(x)) in the centers at the fresh x and
    the surrogate center prox; then the w update.

    ``losses`` is the population's loss stack and ``batches`` each client's minibatch
    rows, or None. ``carried``, when given, is the gradient of f(x) + f(Qs(x)) in x that
    ``objective_rows(..., grads=True)`` took at x from its own passes, and the step adds
    the coupling to it in place. Without it (pin steps, minibatch steps,
    ``client_local_step``) the step runs those two passes itself, to the same bits.
    Pinned coordinates (fine-tuning) ride their centers instead of taking the x-prox,
    before and after the center step. With lambda_p = 0 the coupling lambda_p * (x - w)
    is skipped and w kept.
    A row whose gradient iterate is not finite keeps that iterate and its centers and
    counts no ``crossings``; ``_train`` raises on it.
    """
    gl = losses if batches is None else losses.subset(batches)
    lam_t = hp.lam(t)
    cfg = hp.quant_cfg
    x, centers, pins = rows.x, rows.centers, rows.pinned

    g = carried
    if g is None:
        g = gl.gradient(x)
        g += quant_gradient_x_rows(gl, x, centers, layout, cfg)
    if hp.lambda_p != 0.0:
        g += hp.lambda_p * (x - rows.w)
    x_new = x - hp.eta1 * g
    stepped = np.isfinite(x_new).all(axis=1)
    raw = None
    if not stepped.all():  # before prox_x snaps a NaN: such rows step on from x, then revert
        raw, x_new = x_new, np.where(stepped[:, None], x_new, x)
    t_x = lam_t * hp.eta1 / 2.0  # ProxParams(eta1, lam_t).threshold
    for gi, ((start, stop), c) in enumerate(zip(layout.groups, centers)):
        xg = x_new[:, start:stop]
        x_new[:, start:stop] = (prox_x_rows(xg, c.values, assign_rows(xg, c.mids), t_x)
                                if pins is None else take_rows(c.values, pins[gi]))

    new_centers, crossings = centers, np.zeros(len(x), dtype=np.int64)
    if hp.eta2 != 0.0:
        assigns = [assign_rows(x_new[:, start:stop], c.mids)
                   for (start, stop), c in zip(layout.groups, centers)]
        h_list = quant_gradient_c_rows(gl, x_new, centers, layout, cfg, assigns)
        t_c = lam_t * hp.eta2 / 2.0
        new_centers = []
        for gi, ((start, stop), c, h, a) in enumerate(zip(layout.groups, centers, h_list,
                                                          assigns)):
            values, crossed = prox_c_rows(c.values - hp.eta2 * h, x_new[:, start:stop], c, a,
                                          t_c)
            crossings += crossed & stepped
            new_centers.append(c.with_values(values))
            if pins is not None:
                x_new[:, start:stop] = take_rows(values, pins[gi])
    if raw is not None:
        x_new[~stepped] = raw[~stepped]
        new_centers = [c_new.with_values(np.where(stepped[:, None], c_new.values, c.values))
                       for c_new, c in zip(new_centers, centers)]

    w = rows.w
    if hp.lambda_p != 0.0 and hp.eta3 != 0.0:
        w = w + hp.eta3 * hp.lambda_p * (x_new - w)
    return _Rows(x=x_new, w=w, centers=new_centers, pinned=pins, crossings=crossings)


def client_local_step(cs: ClientState, hp: HyperParams, t: int) -> ClientState:
    """One local update of (x_i, c_i, w_i); advances the data_rng it is handed, a run's copy.
    The one-row case of ``_step``; a call that crossed logs one WARNING."""
    new = _step(_pin(_stack([cs]), cs.layout, hp, t), stack_losses([cs.loss]), cs.layout,
                hp, t, _draw_batches([cs.loss], hp, [cs.data_rng]))
    _report_crossings([cs.id], new.crossings)
    return replace(cs, x=new.x[0], centers=[c.row(0) for c in new.centers], w_local=new.w[0],
                   pinned=None if new.pinned is None else [p[0] for p in new.pinned])


def _server_mean(w: np.ndarray) -> np.ndarray:
    """The mean of the local global-model copies, rows in ascending id."""
    return w.mean(axis=0)


def sync_round(clients: list[ClientState]):
    """Average the local global-model copies (ascending id) and broadcast;
    returns ``(clients, w_mean)``, each client holding its own copy of the mean."""
    ordered = sorted(clients, key=lambda c: c.id)
    if len({c.w_local.shape for c in ordered}) != 1:
        raise ValueError("clients disagree on the global model dimension")
    w_mean = _server_mean(np.stack([c.w_local for c in ordered]))
    return [replace(c, w_local=w_mean.copy()) for c in clients], w_mean


def _diversity(x: np.ndarray, w_global: np.ndarray, lambda_p: float) -> np.ndarray:
    """kappa_i of every row of x; see ``estimate_diversity``."""
    grads = lambda_p * (w_global - x)
    mean = grads.mean(axis=0)
    return np.sum((grads - mean) ** 2, axis=1)


def estimate_diversity(clients: list[ClientState], w_global: np.ndarray,
                       lambda_p: float) -> np.ndarray:
    """Per-client squared deviation kappa_i of the w-gradient lambda_p * (w_global - x_i)
    from the mean of them all, in ascending id order."""
    ordered = sorted(clients, key=lambda c: c.id)
    return _diversity(np.stack([c.x for c in ordered]), w_global, lambda_p)


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


def _write_checkpoint(path, step, rows: _Rows, rng: Rng | None, hp: HyperParams) -> None:
    """Client 0's state (row 0) after ``step`` steps, with the hash of the caller's ``hp``."""
    payload = {
        "step": step,
        "x": rows.x[0].tolist(),
        "c": [c.values[0, :int(c.m[0, 0])].tolist() for c in rows.centers],
        "rng_state": list(rng.getstate()) if rng is not None else None,
        "hyperparams_hash": hp.config_hash(),
    }
    write_atomic(path, [json.dumps(payload)])


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends the run as a DivergenceError
def _train(clients: list[ClientState], hp: HyperParams, *, federated: bool,
           checkpoint_path=None) -> QupelResult:
    """The one trainer loop. ``federated`` adds the server: sync every tau steps,
    coupling and w update, ``w_drift``, ``kappa_round`` and ``global_history``.
    Without it every client steps at lambda_p = 0, so ``_step`` skips the coupling and
    keeps w. The starting x and w_local and each client's divergence threshold are
    checked once here; each step checks every objective. One carry rule: a full-batch
    step that pins nothing takes its x-gradient from the objective at the point it
    starts from, f0 for step 0 and the objective after step t for step t+1, which then
    runs its passes as ``value_and_grad`` (``objective_rows(..., grads=True)``).

    The clients, which must share one layout, are stacked once as rows in id order.
    Each step runs four phases: (1) the sync, federated only; (2) pin and step every
    row, then check each objective in id order, so a divergence is raised after the
    whole step; (3) at the metrics cadence, the test accuracies and, federated only,
    kappa once; (4) each client's ``metrics.jsonl`` record, a dict built once from the
    step's columns and kept as is in its ``TrainResult.history``, then the server
    record. The run's center crossings are logged once, at its end or before it diverges."""
    clients = [replace(cs, data_rng=deepcopy(cs.data_rng))  # the run's own streams
               for cs in sorted(clients, key=lambda c: c.id)]
    for cs in clients:
        if not (np.isfinite(cs.x).all() and np.isfinite(cs.w_local).all()):
            raise ValueError(f"client {cs.id}: starting x and w_local must be finite")
    if not clients:
        return QupelResult(per_client=[], global_history=[], w_global=None)
    step_hp = hp if federated else replace(hp, lambda_p=0.0)  # checkpoints keep hp's hash
    ids = [cs.id for cs in clients]
    client_losses = [cs.loss for cs in clients]
    rngs = [cs.data_rng for cs in clients]
    layout, losses, rows = clients[0].layout, stack_losses(client_losses), _stack(clients)
    n = len(clients)

    def objective(rows, t, starts):
        """The step-t objective of ``rows`` and, if step ``starts`` takes its x-gradient
        there (full-batch, pinning nothing), that gradient from the same passes (else None)."""
        carry = hp.batch_size is None and starts < hp.steps \
            and not _pins_at(rows, layout, hp, starts)
        ev = objective_rows(losses, rows.x, rows.centers, layout, rows.w, hp.quant_cfg,
                            hp.lam(t), step_hp.lambda_p, carry)
        return ev if carry else (ev, None)

    ev0, carried = objective(rows, 0, 0)
    f0 = ev0.total.tolist()
    limits = np.array([_divergence_limit(hp, f, f"client {i}") for i, f in zip(ids, f0)])
    w_global = None
    histories: list[list[dict]] = [[] for _ in clients]
    global_history: list[dict] = []
    crossings = np.zeros(n, dtype=np.int64)

    for t in range(hp.steps):
        sync_dev = None
        if federated and t % hp.tau == 0:
            w_global = _server_mean(rows.w)
            rows.w[:] = w_global
            sync_dev = float(np.max(np.abs(rows.w - w_global)))

        before = _pin(rows, layout, hp, t)  # the gap measures the step, not the pin
        batches = _draw_batches(client_losses, hp, rngs)
        # the step spends the carry; dropping it keeps the objective's peak memory as it was
        rows, carried = _step(before, losses, layout, step_hp, t, batches, carried), None
        crossings += rows.crossings
        ev, carried = objective(rows, t, t + 1)
        failed = ~np.isfinite(ev.total) | (ev.total > limits)
        if failed.any():
            _report_crossings(ids, crossings)
            i = int(np.argmax(failed))
            _check_objective(f"client {ids[i]}", t, float(ev.total[i]), f0[i], limits[i],
                             rows.x[i])

        at_cadence = _at_cadence(hp, t)
        kappa_i = _diversity(rows.x, w_global, hp.lambda_p).tolist() \
            if federated and at_cadence else [0.0 if at_cadence else None] * n
        accs = [evaluate_accuracy(cs.loss, x, cs.test)
                if cs.test is not None and at_cadence else None for cs, x in zip(clients, rows.x)]
        gaps = stationarity_gap_rows(before.x, rows.x, before.centers, rows.centers, hp)
        drift = np.sum((rows.w - w_global) ** 2, axis=1).tolist() if federated else [0.0] * n

        for hist, cid, f_x, f_q, reg, pen, total, gap, w_drift, qe, acc, kappa in zip(
                histories, ids, ev.f_x.tolist(), ev.f_q.tolist(), ev.reg.tolist(),
                ev.prox_penalty.tolist(), ev.total.tolist(), gaps.tolist(), drift,
                ev.quant_error.tolist(), accs, kappa_i):
            hist.append({
                "step": t, "client_id": cid, "f_x": f_x, "f_q": f_q, "reg": reg,
                "prox_penalty": pen, "F_total": total, "stationarity_gap": gap,
                "w_drift": w_drift, "quant_error": qe, "test_acc": acc, "kappa_round": kappa,
            })
        if federated:
            record = {"step": t, "synced": sync_dev is not None, "post_sync_dev": sync_dev}
            w_mean = rows.w.mean(axis=0)
            record["consensus_drift"] = float(np.mean(np.sum((rows.w - w_mean) ** 2, axis=1)))
            if at_cadence:
                record["kappa"] = float(np.mean(kappa_i))
                known = [a for a in accs if a is not None]
                record["mean_test_acc"] = float(np.mean(known)) if known else None
            global_history.append(record)
        if checkpoint_path is not None and hp.checkpoint_every \
                and (t + 1) % hp.checkpoint_every == 0:
            _write_checkpoint(checkpoint_path, t + 1, rows, rngs[0], hp)

    _report_crossings(ids, crossings)
    x_hard, _ = hard_quantize_rows(rows.x, rows.centers, layout)
    per_client = [TrainResult(x_final=rows.x[i], centers_final=[c.row(i) for c in rows.centers],
                              x_hard=x_hard[i], history=hist) for i, hist in enumerate(histories)]
    return QupelResult(per_client=per_client, global_history=global_history, w_global=w_global)


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
    average the copies. Nothing it is given changes, each data_rng included. A
    non-finite step raises a DivergenceError naming the client, as does, at the metrics
    cadence, a mean client loss at the averaged model past ``_train``'s threshold (F_0
    at the first averaged model). The result holds the final averaged model.
    """
    if not clients:
        raise ValueError("need at least one client")
    clients = sorted(clients, key=lambda c: c.id)
    rngs = [deepcopy(cs.data_rng) for cs in clients]  # the run's own minibatch streams
    client_losses = [cs.loss for cs in clients]
    losses = stack_losses(client_losses)
    ws = np.stack([cs.w_local for cs in clients])  # the global-model copies, one row per client

    def mean_loss(w):  # every client's loss at the one model w
        return float(np.mean(losses.value(np.repeat(w[None], len(clients), axis=0))))

    history: list[dict] = []
    for t in range(hp.steps):
        if t % hp.tau == 0:
            w_global = ws.mean(axis=0)
            ws[:] = w_global
            if t == 0:
                f0 = mean_loss(w_global)
                limit = _divergence_limit(hp, f0, "fedavg")
        batches = _draw_batches(client_losses, hp, rngs)
        ws -= hp.eta1 * (losses if batches is None else losses.subset(batches)).gradient(ws)
        failed = ~np.isfinite(ws).all(axis=1)
        if failed.any():
            cid = clients[int(np.argmax(failed))].id
            raise DivergenceError(f"client {cid} diverged at step {t}: non-finite step")
        if _at_cadence(hp, t):
            w_mean = ws.mean(axis=0)  # evaluated, not broadcast
            loss_t = mean_loss(w_mean)
            _check_objective("fedavg", t, loss_t, f0, limit, w_mean)
            accs = [evaluate_accuracy(cs.loss, w_mean, cs.test)
                    for cs in clients if cs.test is not None]
            acc = float(np.mean(accs)) if accs else None
            history.append({  # the one global model; no quantized or coupled terms
                "step": t, "client_id": -1, "f_x": loss_t, "f_q": None, "reg": None,
                "prox_penalty": None, "F_total": loss_t, "stationarity_gap": None,
                "w_drift": None, "quant_error": None, "test_acc": acc, "kappa_round": None,
            })
    w_final = ws.mean(axis=0)
    return TrainResult(x_final=w_final, centers_final=[], x_hard=w_final.copy(),
                       history=history)
