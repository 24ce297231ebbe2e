"""Command-line entry point: run experiments, check gradients, compare protocols.

Runs are driven by a JSON config (experiments carry too many knobs for
flags); the command line only selects the config path, output directory and
log level. Every run writes a manifest that fully reconstructs it: re-running
the manifest reproduces the metrics bitwise. Each reader asks only for the keys
that its modes use (``compare``: the union of its modes) and refuses any other
key, so neither a misspelt key nor one that the mode ignores passes unnoticed.

``_population`` is the one reader of a federated config's clients, for ``run``
and, once per seed, ``read_compare_config``; both commands then call ``run_mode``.

Exit codes: 0 success, 1 verification failure (gradcheck), 2 invalid config,
command-line flag or unusable output directory, 3 divergence during training.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .centralized import (
    DivergenceError,
    HyperParams,
    LambdaSchedule,
    init_weights,
    run_centralized,
)
from .data import Dataset, PartitionError, export_partition_json, load_csv, partition_noniid
from .diagnostics import export_metrics, run_gradient_suite, run_prox_suite, write_atomic
from .experiments import (
    BlobTask,
    _make_loss,
    avg_quantized_accuracy,
    build_blob_task,
    build_clients,
    make_client,
    mixed_precision_m,
    run_mode,
    summarize_clients,
)
from .losses import QuadraticLoss
from .quantizer import QuantConfig
from .rng import Rng

MODES = ("centralized", "qupel", "fedavg", "local")
_CENTERS = {"centralized", "local", "qupel"}  # the modes that train quantization centers
_asked: set[tuple[str, ...]] = set()  # every path ``_get`` was asked for since a reader began


class ConfigError(Exception):
    """An unusable config field; not a ValueError, so no handler below re-labels it."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _checked(conv, name: str, ok=lambda value: True):
    """A ``_get`` converter: ``conv``, refusing results that fail ``ok``; ``name`` says why."""
    def read(value):
        value = conv(value)
        if not ok(value):
            raise ValueError(name)
        return value
    read.__name__ = name
    return read


def _list_of(conv):
    def read(value):
        if not isinstance(value, list):
            raise TypeError("not a list")
        return [conv(v) for v in value]
    read.__name__ = f"list of {conv.__name__}"
    return read


def _number(value) -> float:
    """A JSON number as a float; a string or a boolean is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("not a number")
    return float(value)


def _integer(value) -> int:
    """A JSON integer; an integral float such as 4.0 counts, a fraction does not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("not an integer")
    return value


_flag = _checked(lambda v: v, "true or false", lambda v: isinstance(v, bool))
_string = _checked(lambda v: v, "string", lambda v: isinstance(v, str))
_pos_int = _checked(_integer, "integer >= 1", lambda v: v >= 1)
_nonneg_int = _checked(_integer, "integer >= 0", lambda v: v >= 0)
_finite = _checked(_number, "finite number", math.isfinite)
_nonneg = _checked(_number, "finite number >= 0", lambda v: 0.0 <= v < math.inf)
_pos = _checked(_number, "finite number > 0", lambda v: 0.0 < v < math.inf)
_compare_mode = _checked(str, "qupel|local|fedavg", lambda v: v in ("qupel", "local", "fedavg"))


def _get(cfg: dict, path: str, required: bool = False, default=None, conv=None):
    """The value at dotted ``path`` (null counts as absent), passed through ``conv`` if given."""
    node = cfg
    parts = path.split(".")
    _asked.add(tuple(parts))
    for i, part in enumerate(parts):
        if not isinstance(node, dict):
            raise ConfigError(".".join(parts[:i]) or "config", f"expected an object, got {node!r}")
        if node.get(part) is None:
            if required:
                raise ConfigError(path, "missing required field")
            return default
        node = node[part]
    if conv is None:
        return node
    try:
        return conv(node)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(path, f"expected {conv.__name__}, got {node!r}") from None


def _leaves(node: dict, prefix=()):
    """The path of every non-null, non-object value under ``node``."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + (key,))
        elif value is not None:
            yield prefix + (key,)


def _reader(read):
    """Wrap a config reader so that a key it never asked for is refused after it has read."""
    @functools.wraps(read)
    def checked(cfg: dict):
        _asked.clear()
        result = read(cfg)
        for path in _leaves(cfg):
            if path not in _asked:
                raise ConfigError(".".join(path), "unknown key for this command and mode")
        return result
    return checked


def _lambda_schedule(cfg: dict) -> LambdaSchedule:
    kind = _get(cfg, "hyper.lambda.kind", default="constant")
    if kind == "constant":
        return LambdaSchedule.constant(_get(cfg, "hyper.lambda.value", default=0.0, conv=_nonneg))
    if kind == "linear":
        return LambdaSchedule.linear(_get(cfg, "hyper.lambda.base", default=0.0, conv=_nonneg),
                                     cap=_get(cfg, "hyper.lambda.cap", default=math.inf,
                                              conv=_checked(_number, "number >= 0",
                                                            lambda v: v >= 0)))
    raise ConfigError("hyper.lambda.kind", f"unknown schedule kind {kind!r}")


# each ``hyper`` key: its converter and the modes that read it; unset, it keeps the default
_ALL, _QUPEL = set(MODES), {"qupel"}
_HYPER_FIELDS = {"eta1": (_pos, _ALL), "eta2": (_nonneg, _CENTERS), "steps": (_nonneg_int, _ALL),
                 "eta3": (_nonneg, _QUPEL), "lambda_p": (_nonneg, _QUPEL),
                 "tau": (_pos_int, {"qupel", "fedavg"}), "fine_tune_start": (_nonneg_int, _CENTERS),
                 "divergence_factor": (_pos, _ALL), "metrics_every": (_pos_int, _ALL),
                 "batch_size": (_pos_int, _ALL), "checkpoint_every": (_pos_int, {"centralized"})}


def build_hyper(cfg: dict, modes: set) -> HyperParams:
    """The ``HyperParams`` of the keys ``modes`` use; without centers (fedavg), eta2 is 0."""
    try:
        fields = {name: _get(cfg, f"hyper.{name}", conv=conv,
                             required=name in ("eta1", "eta2", "steps"))
                  for name, (conv, users) in _HYPER_FIELDS.items() if modes & users}
        if modes & _CENTERS:  # the hard quantizer ignores sharpness, so only soft mode reads it
            hard = _get(cfg, "quantization.hard_limit", default=True, conv=_flag)
            sharpness = 8.0 if hard else _get(cfg, "quantization.sharpness", default=8.0, conv=_pos)
            fields.update(lambda_schedule=_lambda_schedule(cfg),
                          quant_cfg=QuantConfig(sharpness=sharpness, hard_limit=hard))
        return HyperParams(**{"eta2": 0.0, **{n: v for n, v in fields.items() if v is not None}})
    except ValueError as exc:
        raise ConfigError("hyper", str(exc)) from exc


def _read_csv(cfg: dict, field: str):
    try:
        return load_csv(_get(cfg, field, required=True, conv=_string))
    except (OSError, ValueError) as exc:  # a missing file or a malformed row
        raise ConfigError(field, str(exc)) from None


def _build_task(cfg: dict, seed: int, default_kind=None) -> BlobTask:
    """The dataset of ``cfg``; ``dataset.kind`` is required if ``default_kind`` is None."""
    kind = _get(cfg, "dataset.kind", required=default_kind is None, default=default_kind)
    if kind == "blobs":
        return build_blob_task(
            n_classes=_get(cfg, "dataset.classes", required=True,
                           conv=_checked(_integer, "integer >= 2", lambda v: v >= 2)),
            dim=_get(cfg, "dataset.dim", required=True, conv=_pos_int),
            # a fifth of each class is held out for testing
            per_class=_get(cfg, "dataset.per_class", required=True,
                           conv=_checked(_integer, "integer >= 5", lambda v: v >= 5)),
            spread=_get(cfg, "dataset.spread", required=True, conv=_pos),
            seed=_get(cfg, "dataset.seed", default=seed, conv=_nonneg_int))
    if kind == "csv":  # the test labels take the train file's ids
        train, test = (_read_csv(cfg, f"dataset.{f}") for f in ("train", "test"))
        if test.features.shape[1] != train.features.shape[1]:
            raise ConfigError("dataset.test", f"expected {train.features.shape[1]} feature "
                              f"columns as in dataset.train, got {test.features.shape[1]}")
        ids = {v: i for i, v in enumerate(train.label_values)}
        missing = [v for v in test.label_values if v not in ids]
        if missing:
            raise ConfigError("dataset.test", f"label {missing[0]} does not occur in dataset.train")
        test = Dataset(test.features, np.array([ids[v] for v in test.label_values])[test.labels],
                       label_values=train.label_values)
        return BlobTask(train=train, test=test)
    raise ConfigError("dataset.kind", f"unknown dataset kind {kind!r}")


def _client_spec(cfg: dict, n_clients: int, modes: set, n_classes: int | None = None) -> dict:
    """The model and quantization fields that ``modes`` use, as ``build_clients`` keyword
    arguments; an unread field is left out. Without centers (fedavg alone), each client
    gets one center per group."""
    centralized, centers = "centralized" in modes, bool(modes & _CENTERS)
    kinds = ("quadratic", "mlp") if centralized else ("mlp", "logistic")
    kind = _get(cfg, "model.kind", required=centralized, default="mlp")
    if kind not in kinds:
        raise ConfigError("model.kind", f"this mode supports {'|'.join(kinds)}, got {kind!r}")
    if kind == "logistic" and n_classes != 2:
        raise ConfigError("model.kind", f"logistic clients need 2 classes, got {n_classes}")
    per_client = centers and not centralized  # only federated clients differ in precision
    m_list = _get(cfg, "quantization.m_list", conv=_list_of(_pos_int)) if per_client else None
    if m_list is not None:  # beside m_list, case and m are not read, so they are refused
        if len(m_list) != n_clients:
            raise ConfigError("quantization.m_list", f"need {n_clients} entries")
    elif per_client and (case := _get(cfg, "quantization.case", conv=_string)) is not None:
        try:
            m_list = mixed_precision_m(case, n_clients)
        except ValueError as exc:
            raise ConfigError("quantization.case", str(exc)) from None
    else:
        m = _get(cfg, "quantization.m", default=4, conv=_pos_int) if centers else 1
        m_list = [m] * n_clients
    spec = dict(m_list=m_list, model=kind)
    if kind == "mlp":
        spec["hidden"] = _get(cfg, "model.hidden", default=12, conv=_pos_int)
    if kind != "quadratic":
        spec["l2"] = _get(cfg, "model.l2", default=0.0, conv=_nonneg)
    if centers:
        spec["c_max"] = _get(cfg, "quantization.c_max", default=3.0, conv=_pos)
    return spec


def _centralized_train(cfg: dict, seed: int, hp: HyperParams):
    """``train(out_dir)`` of a centralized run: one model, initialised from ``Rng(seed)``."""
    spec = _client_spec(cfg, 1, {"centralized"})
    if spec["model"] == "quadratic":
        targets = _get(cfg, "model.targets", required=True,
                       conv=_checked(_list_of(_finite), "nonempty list of finite number", len))
        curvature = _get(cfg, "model.curvature", required=True, conv=_list_of(_pos))
        if len(curvature) != len(targets):
            raise ConfigError("model.curvature", f"need {len(targets)} entries, one per target")
        if hp.batch_size is not None:
            raise ConfigError("hyper.batch_size", "the quadratic model has no samples to draw")
        loss, test = QuadraticLoss(targets, curvature), None
    else:
        task = _build_task(cfg, seed)
        loss = _make_loss("mlp", task.train, task.train.n_classes, spec["hidden"], spec["l2"])
        test = task.test
    rng = Rng(seed)
    # a stream only when minibatches are drawn, so full-batch checkpoints keep rng_state null
    data_rng = rng.spawn(2) if hp.batch_size is not None else None
    client = make_client(0, loss, init_weights(loss.dim, rng), spec["m_list"][0],
                         c_max=spec["c_max"], test=test, data_rng=data_rng)

    def train(out_dir: Path):
        res = run_centralized(loss, client.x, client.centers, hp, layout=client.layout,
                              test=test, rng=data_rng, checkpoint_path=out_dir / "checkpoint.json"
                              if hp.checkpoint_every else None)
        return summarize_clients([res], [client]), [m.as_record() for m in res.history]
    return train


def _cell(v) -> str:
    """A CSV cell: empty for None, 17 significant digits for a float."""
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_csv(path, fields, rows):
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(fields)
    writer.writerows([_cell(row.get(f)) for f in fields] for row in rows)
    write_atomic(path, [text.getvalue()])


def _config_command(body):
    """Wrap ``body(cfg, out_override)`` with the JSON read and the exit-code mapping."""
    def command(config_path: str, out_override=None) -> int:
        try:
            cfg = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
        try:
            return body(cfg, out_override)
        except ConfigError as exc:
            print(f"error: invalid config: {exc}", file=sys.stderr)
            return 2
        except DivergenceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    return command


def _out_dir(out_dir: str, outputs) -> Path:
    """The output directory, created, with the ``outputs`` an earlier run left there deleted;
    a directory that cannot be made or cleared is refused as ``out_dir``."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in outputs:  # a diverged rerun must leave no stale outputs
            (out_dir / name).unlink(missing_ok=True)
    except OSError as exc:
        raise ConfigError("out_dir", str(exc)) from None
    return out_dir


def _population(cfg: dict, seed: int, modes: set, default_kind=None):
    """``(partition, new_clients)`` of a federated config under ``seed`` for ``modes``: the
    dataset and partition are drawn once, and each ``new_clients()`` builds fresh clients."""
    task = _build_task(cfg, seed, default_kind)
    part_seed = _get(cfg, "partition.seed", default=seed, conv=_nonneg_int)
    n, k = (_get(cfg, f"partition.{f}", required=True, conv=_pos_int)
            for f in ("clients", "classes_per_client"))
    try:
        partition = partition_noniid(task.train, n, k, part_seed)
    except PartitionError as exc:
        raise ConfigError("partition", str(exc)) from None
    for i, classes in enumerate(partition.assigned_classes):  # each client is scored on these
        if not np.isin(classes, task.test.labels).any():
            names = task.train.label_values or range(task.train.n_classes)
            raise ConfigError("dataset.test", f"no sample of client {i}'s labels "
                              f"{[names[c] for c in classes]}")
    spec = _client_spec(cfg, partition.n_clients, modes, task.train.n_classes)
    return partition, lambda: build_clients(task, partition, seed=part_seed, **spec)


@_reader
def read_run_config(cfg: dict):
    """``(mode, seed, hp, out_dir, train)`` of a checked ``run`` config; nothing has run yet.

    ``train(out_dir)`` runs the mode, writes its partition or checkpoint to
    ``out_dir`` if it has one, and returns the summary rows and metrics records.
    """
    mode = _get(cfg, "mode", required=True)
    if mode not in MODES:
        raise ConfigError("mode", f"must be one of {MODES}")
    if "QUPEL_SEED" in os.environ:  # the manifest's config must hold the run's one seed
        raise ConfigError("QUPEL_SEED", "the seed is read only from the config; unset it")
    seed = _get(cfg, "seed", default=0, conv=_nonneg_int)
    out_dir = _get(cfg, "out_dir", default=f"runs/{mode}", conv=_string)
    hp = build_hyper(cfg, {mode})
    if mode == "centralized":
        return mode, seed, hp, out_dir, _centralized_train(cfg, seed, hp)
    partition, new_clients = _population(cfg, seed, {mode})
    clients = new_clients()

    def train(out_dir: Path):
        export_partition_json(partition, out_dir / "partition.json")
        return run_mode(mode, clients, hp)
    return mode, seed, hp, out_dir, train


@_config_command
def cmd_run(cfg: dict, out_override) -> int:
    mode, seed, hp, out_dir, train = read_run_config(cfg)
    out_dir = _out_dir(out_override or out_dir,
                       ("metrics.jsonl", "summary.csv", "partition.json", "checkpoint.json"))
    write_atomic(out_dir / "manifest.json", [json.dumps(
        {"package_version": __version__, "seed": seed, "hyperparams_hash": hp.config_hash(),
         "config": cfg}, indent=2)])
    rows, records = train(out_dir)
    export_metrics(records, out_dir / "metrics.jsonl")
    _write_csv(out_dir / "summary.csv", ["client_id", "bits", "acc_fp_eval", "acc_quantized",
                                         "final_total", "final_gap"], rows)

    acc = avg_quantized_accuracy(rows)
    gap = rows[0].get("final_gap")
    bits = ", ".join(f"{r['bits']:g}" for r in rows[:8])
    print(f"mode={mode} clients={len(rows)} bits=[{bits}{', ...' if len(rows) > 8 else ''}]")
    if not math.isnan(acc):  # NaN: no row has a test set
        kind = "full-precision" if mode == "fedavg" else "quantized"  # fedavg rows are 32-bit
        print(f"avg {kind} test accuracy: {acc:.4f}")
    if gap is not None:
        print(f"final stationarity gap (client 0): {gap:.3e}")
    print(f"outputs in {out_dir}")
    return 0


def cmd_gradcheck(tol: float = 1e-5, instances: int = 1000, inject_fault: bool = False) -> int:
    grad = run_gradient_suite(n_instances=instances, tol=tol, broken=inject_fault)
    print(f"gradient suite: {grad.n_instances} instances, max rel err {grad.max_err:.3e} "
          f"({grad.detail or 'n/a'}), {grad.elapsed_s:.1f}s -> "
          f"{'ok' if grad.passed else 'FAIL'}")
    prox = run_prox_suite(n_instances=instances, seed=20241)
    print(f"prox suite: {prox.n_instances} instances, max deviation {prox.max_err:.3e} "
          f"({prox.detail or 'n/a'}), {prox.elapsed_s:.1f}s -> "
          f"{'ok' if prox.passed else 'FAIL'}")
    return 0 if (grad.passed and prox.passed) else 1


@_reader
def read_compare_config(cfg: dict):
    """``(modes, hp, out_dir, [(seed, new_clients)])`` of a checked ``compare`` config: each
    seed's dataset and partition are drawn once, and checked, before any mode trains."""
    modes = _get(cfg, "modes", default=[], conv=_list_of(_compare_mode))
    if not modes or len(set(modes)) != len(modes):
        raise ConfigError("modes", "must list at least one mode, and no mode twice")
    seeds = _get(cfg, "seeds", default=[1, 2, 3], conv=_list_of(_nonneg_int))
    if not seeds or len(set(seeds)) != len(seeds):
        raise ConfigError("seeds", "must list at least one seed, and no seed twice")
    for field in ("dataset.seed", "partition.seed"):
        if _get(cfg, field) is not None:
            raise ConfigError(field, "compare draws the dataset and the partition from each "
                              "entry of seeds")
    if _get(cfg, "dataset.kind", default="blobs") != "blobs":
        raise ConfigError("dataset.kind", "compare draws a blobs dataset per seed")
    out_dir = _get(cfg, "out_dir", default="runs/compare", conv=_string)
    hp = build_hyper(cfg, set(modes))
    return modes, hp, out_dir, [(s, _population(cfg, s, set(modes), "blobs")[1]) for s in seeds]


@_config_command
def cmd_compare(cfg: dict, out_override) -> int:
    """Run several protocols on the dataset and partition drawn from each seed."""
    modes, hp, out_dir, populations = read_compare_config(cfg)
    out_dir = _out_dir(out_override or out_dir, ("comparison.csv",))
    records, by_seed = [], {}
    for seed, new_clients in populations:
        for mode in modes:
            acc = avg_quantized_accuracy(run_mode(mode, new_clients(), hp)[0])
            records.append({"mode": mode, "seed": seed, "avg_test_acc": acc})
            by_seed.setdefault(seed, {})[mode] = acc
    _write_csv(out_dir / "comparison.csv", ["mode", "seed", "avg_test_acc"], records)
    for seed in sorted(by_seed):
        line = " ".join(f"{m}={v:.4f}" for m, v in sorted(by_seed[seed].items()))
        print(f"seed {seed}: {line}")
    if {"qupel", "local", "fedavg"} <= set(modes):
        ordered = sum(a["qupel"] > a["local"] > a["fedavg"] for a in by_seed.values())
        print(f"ordering qupel > local > fedavg holds in {ordered}/{len(by_seed)} seeds")
    print(f"outputs in {out_dir}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qupel",
                                     description="quantized personalized FL simulator")
    parser.add_argument("--log-level", default="WARNING", type=str.upper,
                        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"))
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("run", "execute one experiment from a JSON config"),
                       ("compare", "run several protocols on identical partitions")):
        p_cfg = sub.add_parser(name, help=text)
        p_cfg.add_argument("--config", required=True)
        p_cfg.add_argument("--out", default=None)

    p_grad = sub.add_parser("gradcheck", help="finite-difference and prox oracle suites")
    p_grad.add_argument("--tol", default=1e-5, type=_checked(
        float, "finite number > 0", lambda v: 0.0 < v < math.inf))
    p_grad.add_argument("--instances", default=1000, type=_checked(int, "integer >= 1",
                                                                   lambda v: v >= 1))
    p_grad.add_argument("--inject-fault", action="store_true",
                        help=argparse.SUPPRESS)  # detector self-test

    args = parser.parse_args(argv)
    logging.basicConfig(level=args.log_level)

    if args.command == "gradcheck":
        return cmd_gradcheck(tol=args.tol, instances=args.instances,
                             inject_fault=args.inject_fault)
    return {"run": cmd_run, "compare": cmd_compare}[args.command](args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
