"""Builders, the bitwise result comparison, the per-client reference trainer and the
scalar draw loops shared by the test modules."""

import json
import logging
import math
import re
from copy import deepcopy
from dataclasses import replace

import numpy as np

from qupel.centralized import TrainResult, stationarity_gap
from qupel.diagnostics import evaluate_accuracy
from qupel.federated import (
    _at_cadence,
    _check_objective,
    _divergence_limit,
    _train,
    estimate_diversity,
    sync_round,
)
from qupel.losses import (
    QuadraticLoss,
    _one_row,
    eval_F_i_grouped,
    hard_quantize_rows,
    loss_quant_gradient_c,
    loss_quant_gradient_x,
)
from qupel.proxops import ProxParams, prox_c, prox_x
from qupel.quantizer import CenterVector, QuantConfig, hard_quantize
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


def crossing_reports(records):
    """``(total, client ids)`` of each WARNING about center crossings among log records;
    None for a crossing WARNING that gives no total."""
    reports = []
    for r in records:
        message = r.getMessage()
        if r.levelno == logging.WARNING and "center crossing" in message:
            match = re.match(r"center crossings: (\d+), on clients \[([\d, ]*)\]", message)
            reports.append(match and (int(match[1]), [int(i) for i in match[2].split(",")]))
    return reports


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


# ---------------------------------------------------------------------------
# the soft quantizer one row and one group at a time, kept as the oracle of the stacked one


def reference_sigmoid(t):
    """The logistic function by boolean masks, kept as the oracle of ``quantizer.sigmoid``."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def soft_quantize_row(x, c, cfg):
    """The sigmoid staircase of one finite vector."""
    v = c.values
    if c.m == 1:
        return np.full_like(x, v[0])
    s = reference_sigmoid(cfg.sharpness * (x[:, None] - c.midpoints()[None, :]))
    return v[0] + s @ np.diff(v)


def grad_soft_quantize_x_row(x, c, cfg):
    """The diagonal of the soft quantizer's x-Jacobian at one vector."""
    s = reference_sigmoid(cfg.sharpness * (x[:, None] - c.midpoints()[None, :]))
    return cfg.sharpness * ((s * (1.0 - s)) @ np.diff(c.values))


def grad_soft_quantize_c_row(x, c, cfg):
    """The (m, d) Jacobian of the soft quantizer in the centers at one vector."""
    m, d, P = c.m, x.size, cfg.sharpness
    s = reference_sigmoid(P * (x[None, :] - c.midpoints()[:, None]))
    sp = s * (1.0 - s)
    jac = np.zeros((m, d))
    jac[0, :] = 1.0
    jac[1:, :] += s
    jac[:-1, :] -= s
    width_term = (P / 2.0) * np.diff(c.values)[:, None] * sp
    jac[:-1, :] -= width_term
    jac[1:, :] -= width_term
    return jac


def soft_quantize_grouped_row(x, centers, layout, cfg):
    """``soft_quantize_row`` of each group of x; exempt coordinates pass through."""
    out = np.array(x, dtype=np.float64)
    for (start, stop), c in zip(layout.groups, centers):
        out[start:stop] = soft_quantize_row(out[start:stop], c, cfg)
    return out


def reference_quant_gradient_x(loss, x, centers, layout, cfg):
    """``loss_quant_gradient_x``, through the per-row formulas in soft mode."""
    if cfg.hard_limit:
        return loss_quant_gradient_x(loss, x, centers, layout, cfg)
    gy = loss.gradient(soft_quantize_grouped_row(x, centers, layout, cfg))
    out = gy.copy()  # exempt coordinates see the identity Jacobian
    for (start, stop), c in zip(layout.groups, centers):
        out[start:stop] = grad_soft_quantize_x_row(x[start:stop], c, cfg) * gy[start:stop]
    return out


def reference_quant_gradient_c(loss, x, centers, layout, cfg):
    """``loss_quant_gradient_c``, through the per-row formulas in soft mode."""
    if cfg.hard_limit:
        return loss_quant_gradient_c(loss, x, centers, layout, cfg)
    gy = loss.gradient(soft_quantize_grouped_row(x, centers, layout, cfg))
    return [grad_soft_quantize_c_row(x[start:stop], c, cfg) @ gy[start:stop]
            for (start, stop), c in zip(layout.groups, centers)]


def reference_objective(loss, x, centers, layout, w, cfg, lam, lambda_p):
    """``eval_F_i_grouped``, with f(Q) from the per-row formulas in soft mode."""
    ev = eval_F_i_grouped(loss, x, centers, layout, w, hard_cfg(), lam, lambda_p)
    if cfg.hard_limit:
        return ev
    f_q = (loss.value(soft_quantize_grouped_row(x, centers, layout, cfg))
           if np.isfinite(ev.quant_error) else np.nan)
    return replace(ev, f_q=f_q, total=ev.f_x + f_q + ev.reg + ev.prox_penalty)


# ---------------------------------------------------------------------------
# the per-client trainer: one client after another, the oracle of the stacked loop


def _reference_pin(cs, hp, t):
    """At ``fine_tune_start``, snap the quantized coordinates onto their centers and pin them."""
    if cs.pinned is not None or t != hp.ft_start() or not cs.layout.groups:
        return cs
    x, pinned = hard_quantize_rows(cs.x[None], _one_row(cs.centers), cs.layout)
    return replace(cs, x=x[0], pinned=[a[0] for a in pinned])


def _reference_grad_loss(loss, hp, rng):
    """Loss used for gradients this step: full loss, or a minibatch view."""
    if hp.batch_size is None:
        return loss
    if rng is None:
        raise ValueError("minibatch mode needs an explicit rng")
    n = loss.n_samples
    return loss.subset(np.sort(rng.sample(n, min(hp.batch_size, n))))


def reference_step(x, centers, pinned, loss, layout, hp, t, rng, coupling=None):
    """One client's alternating prox update: the x step and its prox, then the center
    step at the fresh x and its surrogate prox; pinned coordinates ride their centers."""
    gl = _reference_grad_loss(loss, hp, rng)
    lam_t = hp.lam(t)
    cfg = hp.quant_cfg
    pins = [None] * len(layout.groups) if pinned is None else pinned

    g = gl.gradient(x) + reference_quant_gradient_x(gl, x, centers, layout, cfg)
    if coupling is not None:
        g = g + coupling
    x_new = x - hp.eta1 * g
    if not np.isfinite(x_new).all():
        return x_new, list(centers)
    px = ProxParams(eta=hp.eta1, lam=lam_t)
    for (start, stop), c, assign in zip(layout.groups, centers, pins):
        x_new[start:stop] = prox_x(x_new[start:stop], c, px) if assign is None else c.values[assign]

    if hp.eta2 == 0.0:
        return x_new, list(centers)
    h_list = reference_quant_gradient_c(gl, x_new, centers, layout, cfg)
    pc = ProxParams(eta=hp.eta2, lam=lam_t)
    centers_new = []
    for (start, stop), c, h, assign in zip(layout.groups, centers, h_list, pins):
        c_new = prox_c(c.values - hp.eta2 * h, x_new[start:stop], c, pc)
        centers_new.append(c_new)
        if assign is not None:
            x_new[start:stop] = c_new.values[assign]
    return x_new, centers_new


def reference_hard_quantize(x, centers, layout):
    """Each group of x at its nearest centers; exempt coordinates pass through."""
    out = x.copy()
    for (start, stop), c in zip(layout.groups, centers):
        out[start:stop] = hard_quantize(x[start:stop], c)
    return out


def reference_local_step(cs, hp, t):
    """One local update of (x_i, c_i, w_i), one client on its own."""
    cs = _reference_pin(cs, hp, t)
    coupling = hp.lambda_p * (cs.x - cs.w_local) if hp.lambda_p != 0.0 else None
    x_new, centers_new = reference_step(cs.x, cs.centers, cs.pinned, cs.loss, cs.layout, hp, t,
                                        cs.data_rng, coupling=coupling)
    if hp.lambda_p == 0.0 or hp.eta3 == 0.0:
        w_new = cs.w_local
    else:
        w_new = cs.w_local + hp.eta3 * hp.lambda_p * (x_new - cs.w_local)
    return replace(cs, x=x_new, centers=centers_new, w_local=w_new)


@np.errstate(over="ignore", invalid="ignore")
def reference_train(clients, hp, *, federated):
    """``federated._train`` as a loop over clients, each through the one-client calls:
    ``reference_local_step``, ``sync_round``, ``reference_objective``, ``stationarity_gap``
    and ``estimate_diversity``; soft mode runs the per-row formulas above. Returns
    ``(per_client, global_history, w_global)``."""
    clients = [replace(cs, data_rng=deepcopy(cs.data_rng))
               for cs in sorted(clients, key=lambda c: c.id)]
    step_hp = hp if federated else replace(hp, lambda_p=0.0)
    w_global = None
    f0 = [reference_objective(cs.loss, cs.x, cs.centers, cs.layout, cs.w_local, hp.quant_cfg,
                              hp.lam(0), step_hp.lambda_p).total for cs in clients]
    limits = [_divergence_limit(hp, f, f"client {cs.id}") for cs, f in zip(clients, f0)]
    histories = [[] for _ in clients]
    global_history = []
    for t in range(hp.steps):
        sync_dev = None
        if federated and t % hp.tau == 0:
            clients, w_global = sync_round(clients)
            sync_dev = max(float(np.max(np.abs(c.w_local - w_global))) for c in clients)
        before = [_reference_pin(cs, hp, t) for cs in clients]
        clients = [reference_local_step(cs, step_hp, t) for cs in before]
        evs = [reference_objective(cs.loss, cs.x, cs.centers, cs.layout, cs.w_local,
                                   hp.quant_cfg, hp.lam(t), step_hp.lambda_p) for cs in clients]
        for cs, ev, f, limit in zip(clients, evs, f0, limits):
            _check_objective(f"client {cs.id}", t, ev.total, f, limit, cs.x)
        at_cadence = _at_cadence(hp, t)
        kappa_i = estimate_diversity(clients, w_global, hp.lambda_p).tolist() \
            if federated and at_cadence else [0.0 if at_cadence else None] * len(clients)
        accs = [evaluate_accuracy(cs.loss, cs.x, cs.test)
                if cs.test is not None and at_cadence else None for cs in clients]
        for hist, old, cs, ev, acc, kappa in zip(histories, before, clients, evs, accs, kappa_i):
            hist.append({
                "step": t, "client_id": cs.id, "f_x": ev.f_x, "f_q": ev.f_q, "reg": ev.reg,
                "prox_penalty": ev.prox_penalty, "F_total": ev.total,
                "stationarity_gap": stationarity_gap(old.x, cs.x, old.centers, cs.centers, hp),
                "w_drift": float(np.sum((cs.w_local - w_global) ** 2)) if federated else 0.0,
                "quant_error": ev.quant_error, "test_acc": acc, "kappa_round": kappa,
            })
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
    per_client = [TrainResult(x_final=cs.x, centers_final=cs.centers,
                              x_hard=reference_hard_quantize(cs.x, cs.centers, cs.layout),
                              history=hist) for cs, hist in zip(clients, histories)]
    return per_client, global_history, w_global


def assert_matches_reference(clients, hp, fed=True):
    """``federated._train`` and ``reference_train`` agree bit for bit: every per-client
    result, the server history and the last synced global model."""
    assert_result_matches_reference(_train(clients, hp, federated=fed), clients, hp, fed)


def assert_result_matches_reference(got, clients, hp, fed):
    """``assert_matches_reference`` on ``got``, a ``_train`` result the caller holds."""
    per_client, global_history, w_global = reference_train(clients, hp, federated=fed)
    assert len(got.per_client) == len(per_client)
    assert all(results_identical(a, b) for a, b in zip(got.per_client, per_client))
    assert json.dumps(got.global_history) == json.dumps(global_history)
    assert (got.w_global is None and w_global is None
            or got.w_global.tobytes() == w_global.tobytes())


# ---------------------------------------------------------------------------
# Rng's draw loops one value at a time, kept as the oracle of its lane-parallel path


def reference_uniform(rng, low, high, size):
    vals = [low + (high - low) * rng.random() for _ in range(size)]
    return np.array(vals, dtype=np.float64)


def reference_normal(rng, size):
    out = np.empty(size, dtype=np.float64)
    for i in range(0, size, 2):
        u1 = 1.0 - rng.random()  # (0, 1], keeps log finite
        u2 = rng.random()
        r = math.sqrt(-2.0 * math.log(u1))
        out[i] = r * math.cos(2.0 * math.pi * u2)
        if i + 1 < size:
            out[i + 1] = r * math.sin(2.0 * math.pi * u2)
    return out
