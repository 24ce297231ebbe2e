"""Experiment builders: blob classification tasks, client construction, mode dispatch.

These helpers wire datasets, losses and trainer state together for the CLI
and the verification suites. Clients share a common seeded initialization of
the personalized model (keeping hidden units aligned across clients so that
averaging the global-model copies is meaningful) and, per precision, its
starting centers; partitions and minibatch streams derive from per-purpose
child seeds. ``run_mode`` dispatches a mode name to its trainer, which changes
no client: ``qupel compare`` runs every mode of a seed on the same clients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .centralized import HyperParams, init_centers_from_weights, init_weights
from .data import Dataset, Partition, make_blobs
from .diagnostics import evaluate_accuracy
from .federated import ClientState, run_fedavg, run_local_only, run_qupel
from .losses import LogisticLoss, MlpLoss, QuantLayout
from .rng import Rng

__all__ = [
    "BITS_PRESETS",
    "mixed_precision_m",
    "BlobTask",
    "build_blob_task",
    "make_client",
    "build_clients",
    "summarize_clients",
    "run_mode",
]

# average-bits presets: fraction of clients at 3 bits (m=8), remainder at 2 bits (m=4)
BITS_PRESETS = {
    "3bits": 1.0,
    "2.75bits": 0.75,
    "2.5bits": 0.5,
    "2.25bits": 0.25,
    "2bits": 0.0,
}


def mixed_precision_m(case: str, n_clients: int) -> list[int]:
    """Per-client center counts for a named average-precision case."""
    if case not in BITS_PRESETS:
        raise ValueError(f"unknown precision case {case!r}; options: {sorted(BITS_PRESETS)}")
    n_high = round(BITS_PRESETS[case] * n_clients)
    return [8] * n_high + [4] * (n_clients - n_high)


@dataclass
class BlobTask:
    train: Dataset
    test: Dataset


def build_blob_task(n_classes: int, dim: int, per_class: int, spread: float, seed: int) -> BlobTask:
    train, test = make_blobs(n_classes, dim, per_class, spread, seed)
    return BlobTask(train=train, test=test)


def _make_loss(kind: str, train: Dataset, n_classes: int, hidden: int, l2: float):
    if kind == "mlp":
        return MlpLoss([train.features.shape[1], hidden, n_classes],
                       train.features, train.labels, l2=l2)
    if kind == "logistic":
        if n_classes != 2:
            raise ValueError("logistic clients need a binary task")
        y = np.where(train.labels == 1, 1.0, -1.0)
        return LogisticLoss(train.features, y, l2=l2, class_labels=(0, 1))
    raise ValueError(f"unknown model kind {kind!r}")


def make_client(id: int, loss, x0: np.ndarray, m: int, *, c_max: float = 3.0,
                test: Dataset | None = None, data_rng: Rng | None = None) -> ClientState:
    """A client at ``x0`` whose centers start at the per-group quantiles of ``x0``."""
    layout = QuantLayout.for_mlp(loss) if isinstance(loss, MlpLoss) else QuantLayout.full(loss.dim)
    centers = [init_centers_from_weights(x0[s:e], m, c_max=c_max) for s, e in layout.groups]
    return ClientState(id=id, x=x0.copy(), centers=centers, w_local=x0.copy(), loss=loss,
                       layout=layout, test=test, data_rng=data_rng)


def build_clients(
    task: BlobTask,
    partition: Partition,
    m_list: list[int],
    seed: int,
    *,
    model: str = "mlp",
    hidden: int = 12,
    l2: float = 0.0,
    c_max: float = 3.0,
) -> list[ClientState]:
    """Assemble one trainer state per client of ``partition``.

    All clients share one seeded initialization of the personalized model;
    each client's centers start at the per-group quantiles of that vector,
    computed once per distinct m and shared by the clients of that m.
    A client's test set is the global test split's samples of its assigned
    classes, in their global order; it is built once per distinct class set
    and shared by every client that holds that set. Each client draws
    minibatches from its own child stream ``data_rng``, keyed by its id.
    """
    if len(m_list) != partition.n_clients:
        raise ValueError("m_list must have one entry per client")
    class_sets = [tuple(classes.tolist()) for classes in partition.assigned_classes]
    tests = {key: task.test.take(np.flatnonzero(np.isin(task.test.labels, key)))
             for key in set(class_sets)}
    streams = Rng(seed).spawn(2)
    losses = [_make_loss(model, task.train.take(idx), task.train.n_classes, hidden, l2)
              for idx in partition.client_indices]
    x0 = init_weights(losses[0].dim, Rng(seed).spawn(1))
    starts = {m: make_client(0, losses[0], x0, m, c_max=c_max) for m in set(m_list)}
    return [replace(starts[m], id=i, x=x0.copy(), w_local=x0.copy(), loss=loss,
                    test=tests[key], data_rng=streams.spawn(i))
            for i, (loss, m, key) in enumerate(zip(losses, m_list, class_sets))]


def summarize_clients(results, clients) -> list[dict]:
    """One summary row per client; a result without centers is a full-precision model."""
    rows = []
    for res, cs in zip(results, clients):
        last = res.history[-1] if res.history else None
        acc_fp = evaluate_accuracy(cs.loss, res.x_final, cs.test) if cs.test is not None else None
        rows.append({
            "client_id": cs.id,
            "bits": res.centers_final[0].bits if res.centers_final else 32.0,
            "acc_fp_eval": acc_fp,
            "acc_quantized": evaluate_accuracy(cs.loss, res.x_hard, cs.test)
            if cs.test is not None and res.centers_final else acc_fp,
            "final_total": last["F_total"] if last else None,
            "final_gap": last["stationarity_gap"] if last else None,
        })
    return rows


def run_mode(mode: str, clients, hp: HyperParams) -> tuple[list[dict], list[dict]]:
    """Run one protocol; returns its summary rows and its metrics records by (step, client).

    Every client records every step, and the trainers return the clients in id
    order, so interleaving their histories gives that order without a sort.
    fedavg's one global model records ``client_id = -1``.
    """
    clients = sorted(clients, key=lambda c: c.id)  # the order of the results it summarises
    if mode == "fedavg":  # every client is summarised on the one global model
        res = run_fedavg(clients, hp)
        return summarize_clients([res] * len(clients), clients), res.history
    if mode == "qupel":
        results = run_qupel(clients, hp).per_client
    elif mode == "local":
        results = run_local_only(clients, hp)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    records = [r for step in zip(*(res.history for res in results)) for r in step]
    return summarize_clients(results, clients), records


def avg_quantized_accuracy(rows) -> float:
    vals = [r["acc_quantized"] for r in rows if r["acc_quantized"] is not None]
    return float(np.mean(vals)) if vals else float("nan")
