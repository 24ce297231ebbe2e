"""Synthetic datasets, CSV ingestion, and label-skewed client partitioning.

All randomness flows through the library PRNG (splitmix64-seeded
xoshiro256**, see ``rng``), so datasets and partitions reproduce exactly
from their seeds across runs and implementations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .diagnostics import write_atomic
from .rng import Rng

__all__ = [
    "Dataset",
    "Partition",
    "PartitionError",
    "make_blobs",
    "partition_noniid",
    "load_csv",
    "export_partition_json",
]


@dataclass(frozen=True)
class Dataset:
    """Dense features with integer labels in [0, n_classes)."""

    features: np.ndarray
    labels: np.ndarray
    label_values: tuple | None = None  # original labels per contiguous id, for CSV imports

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValueError("dataset needs at least one sample")
        if not np.all(np.isfinite(feats)):
            raise ValueError("dataset features contain non-finite values")
        if labs.shape != (feats.shape[0],) or labs.min() < 0:
            raise ValueError("labels must be nonnegative ints, one per sample")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], label_values=self.label_values)


def make_blobs(n_classes: int, dim: int, per_class: int, spread: float, seed: int):
    """Gaussian class clusters, stratified 80/20 train/test split.

    Class means are uniform in [-1, 1]^dim; samples add ``spread`` times a
    standard normal. Returns ``(train, test)``; the test share is
    ``per_class // 5`` samples per class, so ``per_class`` must be at least 5.
    """
    if n_classes < 2:
        raise ValueError("need at least two classes")
    if spread <= 0:
        raise ValueError("spread must be positive")
    if per_class < 5:
        raise ValueError("per_class must be >= 5: a fifth of each class is held out for testing")
    rng = Rng(seed)
    means = rng.uniform(-1.0, 1.0, n_classes * dim).reshape(n_classes, dim)
    n_test = per_class // 5
    tr_feats, tr_labs, te_feats, te_labs = [], [], [], []
    for k in range(n_classes):
        pts = means[k][None, :] + spread * rng.normal(per_class * dim).reshape(per_class, dim)
        tr_feats.append(pts[: per_class - n_test])
        tr_labs.append(np.full(per_class - n_test, k, dtype=np.int64))
        te_feats.append(pts[per_class - n_test:])
        te_labs.append(np.full(n_test, k, dtype=np.int64))
    return (Dataset(np.concatenate(tr_feats), np.concatenate(tr_labs)),
            Dataset(np.concatenate(te_feats), np.concatenate(te_labs)))


@dataclass(frozen=True)
class Partition:
    """Disjoint per-client sample indices with the assigned class sets."""

    client_indices: tuple
    assigned_classes: tuple
    classes_per_client: int
    seed: int

    @property
    def n_clients(self) -> int:
        return len(self.client_indices)


class PartitionError(ValueError):
    """The dataset cannot be split across the clients as asked."""


def partition_noniid(ds: Dataset, n_clients: int, k: int, seed: int) -> Partition:
    """Assign k random classes to each client and deal samples evenly.

    Each client receives exactly ``min(k, n_classes)`` distinct classes drawn
    uniformly without replacement. For each class, its samples are shuffled
    and dealt round-robin to the clients holding that class; every
    (client, class) pair keeps the same quota (the smallest feasible one
    across classes) so all clients end up with identical sample counts;
    leftovers are discarded. Raises ``PartitionError``, naming the limiting
    class when even one sample per pair is infeasible.
    """
    n_cls = ds.n_classes
    if not 1 <= k <= n_cls:
        raise PartitionError(f"classes_per_client must lie in [1, {n_cls}]")
    if n_clients < 1:
        raise PartitionError("need at least one client")
    rng = Rng(seed)
    assigned = [np.sort(rng.sample(n_cls, k)) for _ in range(n_clients)]
    holders: dict[int, list[int]] = {c: [] for c in range(n_cls)}
    for i, classes in enumerate(assigned):
        for c in classes:
            holders[int(c)].append(i)

    quota = None
    limiting = None
    for c in range(n_cls):
        if not holders[c]:
            continue
        per_holder = int(np.sum(ds.labels == c)) // len(holders[c])
        if quota is None or per_holder < quota:
            quota, limiting = per_holder, c
    if quota is None:
        raise PartitionError("no class was assigned to any client")
    if quota == 0:
        raise PartitionError(
            f"cannot give every client equal data: class {limiting} has too few samples "
            f"for {len(holders[limiting])} clients"
        )

    client_chunks: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
    for c in range(n_cls):
        if not holders[c]:
            continue
        idx = np.flatnonzero(ds.labels == c)
        rng.shuffle(idx)
        for j, client in enumerate(holders[c]):
            client_chunks[client].append(idx[j::len(holders[c])][:quota])
    client_indices = tuple(np.sort(np.concatenate(chunks)) for chunks in client_chunks)
    return Partition(client_indices=client_indices,
                     assigned_classes=tuple(np.asarray(a, dtype=np.int64) for a in assigned),
                     classes_per_client=k, seed=seed)


def export_partition_json(partition: Partition, path) -> None:
    payload = {
        "seed": partition.seed,
        "k": partition.classes_per_client,
        "assignments": [[int(c) for c in a] for a in partition.assigned_classes],
        "indices": [[int(i) for i in idx] for idx in partition.client_indices],
    }
    write_atomic(path, [json.dumps(payload)])


def load_csv(path) -> Dataset:
    """Read a ``f0,...,f{d-1},label`` CSV; labels are remapped to 0..K-1.

    The original label of each contiguous id is recorded in
    ``Dataset.label_values`` (ascending). Malformed rows raise with their
    line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if len(cols) < 2 or cols[-1] != "label" or not all(
            c == f"f{i}" for i, c in enumerate(cols[:-1])
        ):
            raise ValueError(f"bad header, expected f0,...,f{len(cols) - 2},label: {header!r}")
        d = len(cols) - 1
        feats, raw_labels = [], []
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != d + 1:
                raise ValueError(f"line {ln}: expected {d + 1} columns, got {len(cells)}")
            try:
                row = [float(v) for v in cells]
            except ValueError:
                raise ValueError(f"line {ln}: non-numeric cell in {line!r}") from None
            lab = row[-1]
            if not (-2.0**63 <= lab < 2.0**63 and lab.is_integer()):  # NaN fails the range
                raise ValueError(f"line {ln}: label must be an int64 integer, got {cells[-1]!r}")
            feats.append(row[:-1])
            raw_labels.append(int(lab))
    if not feats:
        raise ValueError("csv contains no data rows")
    raw = np.array(raw_labels, dtype=np.int64)
    uniq = np.unique(raw)
    remap = {int(v): i for i, v in enumerate(uniq)}
    labels = np.array([remap[int(v)] for v in raw], dtype=np.int64)
    return Dataset(np.array(feats, dtype=np.float64), labels,
                   label_values=tuple(int(v) for v in uniq))
