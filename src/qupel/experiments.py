"""Experiment builders: blob classification tasks, client construction, mode dispatch.

These helpers wire datasets, losses and trainer state together for the CLI
and the verification suites. Clients share a common seeded initialization of
the personalized model (keeping hidden units aligned across clients so that
averaging the global-model copies is meaningful), while data partitions and
minibatch streams derive from per-purpose child seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centralized import HyperParams, init_centers_from_weights, init_weights
from .data import Dataset, filter_test_indices, make_blobs, partition_noniid
from .diagnostics import evaluate_accuracy
from .federated import ClientState, run_fedavg, run_local_only, run_qupel
from .losses import LogisticLoss, MlpLoss, QuantLayout, mlp_loss
from .rng import Rng

__all__ = [
    "BITS_PRESETS",
    "mixed_precision_m",
    "BlobTask",
    "build_blob_task",
    "build_clients",
    "quantized_accuracy",
    "full_precision_accuracy",
    "summarize_clients",
    "run_mode",
    "compare_modes",
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
    n_classes: int
    dim: int


def build_blob_task(n_classes: int, dim: int, per_class: int, spread: float, seed: int) -> BlobTask:
    train, test = make_blobs(n_classes, dim, per_class, spread, seed)
    return BlobTask(train=train, test=test, n_classes=n_classes, dim=dim)


def _make_loss(kind: str, train: Dataset, n_classes: int, hidden: int, l2: float):
    if kind == "mlp":
        return mlp_loss([train.features.shape[1], hidden, n_classes],
                        train.features, train.labels, l2=l2)
    if kind == "logistic":
        if n_classes != 2:
            raise ValueError("logistic clients need a binary task")
        y = np.where(train.labels == 1, 1.0, -1.0)
        return LogisticLoss(train.features, y, l2=l2, class_labels=(0, 1))
    raise ValueError(f"unknown model kind {kind!r}")


def _layout_for(loss, exempt_first_last: bool) -> QuantLayout:
    if isinstance(loss, MlpLoss):
        return QuantLayout.for_mlp(loss, exempt_first_last=exempt_first_last)
    return QuantLayout.full(loss.dim)


def build_clients(
    task: BlobTask,
    n_clients: int,
    classes_per_client: int,
    m_list: list[int],
    seed: int,
    *,
    model: str = "mlp",
    hidden: int = 12,
    l2: float = 0.0,
    c_max: float = 3.0,
    exempt_first_last: bool = False,
) -> list[ClientState]:
    """Partition the task across clients and assemble their trainer states.

    All clients share one seeded initialization of the personalized model;
    each client's centers start at the per-group quantiles of that vector.
    The per-client test set is the global test split filtered to the
    client's assigned classes. Each client draws minibatches from its own
    child stream ``data_rng``, keyed by its id.
    """
    if len(m_list) != n_clients:
        raise ValueError("m_list must have one entry per client")
    part = partition_noniid(task.train, n_clients, classes_per_client, seed)
    test_idx = filter_test_indices(task.test, part)
    rng = Rng(seed).spawn(1)
    streams = Rng(seed).spawn(2)
    x0 = None
    clients = []
    for i in range(n_clients):
        train_i = task.train.take(part.client_indices[i])
        loss = _make_loss(model, train_i, task.n_classes, hidden, l2)
        if x0 is None:
            x0 = init_weights(loss.dim, rng)
        layout = _layout_for(loss, exempt_first_last)
        centers = [
            init_centers_from_weights(x0[s:e], m_list[i], c_max=c_max)
            for (s, e) in layout.groups
        ]
        clients.append(ClientState(
            id=i, x=x0.copy(), centers=centers, w_local=x0.copy(), loss=loss,
            layout=layout, test=task.test.take(test_idx[i]), data_rng=streams.spawn(i),
        ))
    return clients


def quantized_accuracy(result, client: ClientState) -> float:
    return evaluate_accuracy(client.loss, result.x_hard, client.test)


def full_precision_accuracy(result, client: ClientState) -> float:
    return evaluate_accuracy(client.loss, result.x_final, client.test)


def summarize_clients(results, clients) -> list[dict]:
    rows = []
    for res, cs in zip(results, clients):
        bits = float(np.log2(cs.centers[0].m)) if cs.centers else 32.0
        last = res.history[-1] if res.history else None
        rows.append({
            "client_id": cs.id,
            "bits": bits,
            "acc_fp_eval": full_precision_accuracy(res, cs) if cs.test is not None else None,
            "acc_quantized": quantized_accuracy(res, cs) if cs.test is not None else None,
            "final_total": last.total if last else None,
            "final_gap": last.stationarity_gap if last else None,
        })
    return rows


def run_mode(mode: str, clients, hp: HyperParams):
    """Dispatch one protocol run; returns (per-client summary rows, results, extra)."""
    if mode == "qupel":
        fed = run_qupel(clients, hp)
        return summarize_clients(fed.per_client, fed.clients), fed.per_client, fed
    if mode == "local":
        results = run_local_only(clients, hp)
        return summarize_clients(results, sorted(clients, key=lambda c: c.id)), results, None
    if mode == "fedavg":
        res = run_fedavg(clients, hp)
        ordered = sorted(clients, key=lambda c: c.id)
        rows = []
        for cs in ordered:
            acc = evaluate_accuracy(cs.loss, res.x_final, cs.test) if cs.test is not None else None
            rows.append({
                "client_id": cs.id, "bits": 32.0, "acc_fp_eval": acc, "acc_quantized": acc,
                "final_total": res.history[-1].total if res.history else None,
                "final_gap": 0.0,
            })
        return rows, [res], res
    raise ValueError(f"unknown mode {mode!r}")


def avg_quantized_accuracy(rows) -> float:
    vals = [r["acc_quantized"] for r in rows if r["acc_quantized"] is not None]
    return float(np.mean(vals)) if vals else float("nan")


def compare_modes(task_cfg: dict, client_cfg: dict, hp: HyperParams,
                  modes: list[str], seeds: list[int]) -> list[dict]:
    """Run the requested modes on identical per-seed partitions.

    Returns one record per (mode, seed) with the average quantized-model
    test accuracy across clients (full precision for fedavg).
    """
    records = []
    for seed in seeds:
        task = build_blob_task(seed=seed, **task_cfg)
        for mode in modes:
            # fresh clients per mode: trainers advance each client's data_rng
            clients = build_clients(task, seed=seed, **client_cfg)
            rows, _, _ = run_mode(mode, clients, hp)
            records.append({"mode": mode, "seed": seed,
                            "avg_test_acc": avg_quantized_accuracy(rows)})
    return records
