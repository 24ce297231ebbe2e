"""Command-line entry point: run experiments, check gradients, compare protocols.

Runs are driven by a JSON config (experiments carry too many knobs for
flags); the command line only selects the config path, output directory and
log level. Every run writes a manifest that fully reconstructs it: re-running
the manifest reproduces the metrics bitwise. The environment variable
``QUPEL_SEED`` overrides the config seed.

Exit codes: 0 success, 1 verification failure (gradcheck), 2 invalid
config, 3 divergence during training.
"""

from __future__ import annotations

import argparse
import csv
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
from .data import PartitionError, export_partition_json, load_csv, partition_noniid
from .diagnostics import export_metrics, run_gradient_suite, run_prox_suite, write_atomic
from .experiments import (
    BlobTask,
    _make_loss,
    build_blob_task,
    build_clients,
    compare_modes,
    make_client,
    mixed_precision_m,
    run_mode,
    summarize_clients,
)
from .losses import quadratic_loss
from .quantizer import QuantConfig
from .rng import Rng

MODES = ("centralized", "qupel", "fedavg", "local")


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


def _step_value(pair):
    step, value = pair
    return _integer(step), _nonneg(value)


_flag = _checked(lambda v: v, "true or false", lambda v: isinstance(v, bool))
_pos_int = _checked(_integer, "integer >= 1", lambda v: v >= 1)
_nonneg_int = _checked(_integer, "integer >= 0", lambda v: v >= 0)
_finite = _checked(_number, "finite number", math.isfinite)
_nonneg = _checked(_number, "finite number >= 0", lambda v: 0.0 <= v < math.inf)
_pos = _checked(_number, "finite number > 0", lambda v: 0.0 < v < math.inf)
_pairs = _checked(_list_of(_checked(_step_value, "[integer step, finite value >= 0]")),
                  "list of [integer step, finite value >= 0] with increasing steps",
                  lambda pairs: all(a[0] < b[0] for a, b in zip(pairs, pairs[1:])))
_points = _checked(_pairs, f"{_pairs.__name__}, from step 0", lambda p: p and p[0][0] == 0)
_compare_mode = _checked(str, "qupel|local|fedavg", lambda v: v in ("qupel", "local", "fedavg"))


def _get(cfg: dict, path: str, required: bool = False, default=None, conv=None):
    """The value at dotted ``path`` (null counts as absent), passed through ``conv`` if given."""
    node = cfg
    parts = path.split(".")
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


def _refuse(cfg: dict, fields, why: str) -> None:
    """Refuse each of ``fields`` that ``cfg`` sets; ``why`` says why it does not apply."""
    for field in fields:
        if _get(cfg, field) is not None:
            raise ConfigError(field, why)


def _lambda_schedule(cfg: dict) -> LambdaSchedule:
    if not isinstance(_get(cfg, "hyper.lambda", default={}), dict):
        return LambdaSchedule.constant(_get(cfg, "hyper.lambda", conv=_nonneg))
    kind = _get(cfg, "hyper.lambda.kind", default="constant")
    if kind == "constant":
        return LambdaSchedule.constant(_get(cfg, "hyper.lambda.value", default=0.0, conv=_nonneg))
    if kind == "linear":
        return LambdaSchedule.linear(_get(cfg, "hyper.lambda.base", default=0.0, conv=_nonneg),
                                     cap=_get(cfg, "hyper.lambda.cap", default=math.inf,
                                              conv=_checked(_number, "number >= 0",
                                                            lambda v: v >= 0)))
    if kind == "piecewise":
        return LambdaSchedule.piecewise(_get(cfg, "hyper.lambda.points", required=True,
                                             conv=_points))
    raise ConfigError("hyper.lambda.kind", f"unknown schedule kind {kind!r}")


def build_hyper(cfg: dict) -> HyperParams:
    try:
        qcfg = QuantConfig(sharpness=_get(cfg, "quantization.sharpness", default=8.0, conv=_pos),
                           hard_limit=_get(cfg, "quantization.hard_limit", default=True, conv=_flag))
        return HyperParams(
            eta1=_get(cfg, "hyper.eta1", required=True, conv=_pos),
            eta2=_get(cfg, "hyper.eta2", required=True, conv=_nonneg),
            steps=_get(cfg, "hyper.steps", required=True, conv=_nonneg_int),
            eta3=_get(cfg, "hyper.eta3", default=0.0, conv=_nonneg),
            lambda_schedule=_lambda_schedule(cfg),
            lambda_p=_get(cfg, "hyper.lambda_p", default=0.0, conv=_nonneg),
            tau=_get(cfg, "hyper.tau", default=1, conv=_pos_int),
            fine_tune_start=_get(cfg, "hyper.fine_tune_start", conv=_nonneg_int),
            quant_cfg=qcfg,
            eta2_decay=tuple(_get(cfg, "hyper.eta2_decay", default=[], conv=_pairs)) or None,
            divergence_factor=_get(cfg, "hyper.divergence_factor", default=1e6, conv=_pos),
            metrics_every=_get(cfg, "hyper.metrics_every", default=1, conv=_pos_int),
            batch_size=_get(cfg, "hyper.batch_size", conv=_pos_int),
            flip_w_update_sign=_get(cfg, "hyper.flip_w_update_sign", default=False, conv=_flag),
            checkpoint_every=_get(cfg, "hyper.checkpoint_every", conv=_pos_int),
        )
    except ValueError as exc:
        raise ConfigError("hyper", str(exc)) from exc


def _effective_seed(cfg: dict) -> int:
    env = os.environ.get("QUPEL_SEED")  # the environment wins over the config
    if env is None:
        return _get(cfg, "seed", default=0, conv=_nonneg_int)
    try:
        return _nonneg_int(int(env))
    except ValueError:
        raise ConfigError("QUPEL_SEED", f"not an integer >= 0: {env!r}") from None


def _blob_fields(cfg: dict) -> dict:
    """The ``build_blob_task`` arguments of a blobs dataset config, except the seed."""
    return dict(n_classes=_get(cfg, "dataset.classes", required=True,
                               conv=_checked(_integer, "integer >= 2", lambda v: v >= 2)),
                dim=_get(cfg, "dataset.dim", required=True, conv=_pos_int),
                # a fifth of each class is held out for testing
                per_class=_get(cfg, "dataset.per_class", required=True,
                               conv=_checked(_integer, "integer >= 5", lambda v: v >= 5)),
                spread=_get(cfg, "dataset.spread", required=True, conv=_pos))


def _read_csv(cfg: dict, field: str):
    try:
        return load_csv(_get(cfg, field, required=True, conv=str))
    except (OSError, ValueError) as exc:  # a missing file or a malformed row
        raise ConfigError(field, str(exc)) from None


def _build_task(cfg: dict, seed: int) -> BlobTask:
    kind = _get(cfg, "dataset.kind", required=True)
    if kind == "blobs":
        return build_blob_task(seed=_get(cfg, "dataset.seed", default=seed, conv=_nonneg_int),
                               **_blob_fields(cfg))
    if kind == "csv":
        train, test = (_read_csv(cfg, f"dataset.{f}") for f in ("train", "test"))
        return BlobTask(train=train, test=test, n_classes=train.n_classes)
    raise ConfigError("dataset.kind", f"unknown dataset kind {kind!r}")


def _client_spec(cfg: dict, n_clients: int, n_classes: int | None = None,
                 kinds=("mlp", "logistic"), default_kind="mlp") -> dict:
    """The model and quantization fields as ``build_clients`` keyword arguments.

    ``model.kind`` is one of ``kinds``, and required if ``default_kind`` is None.
    """
    kind = _get(cfg, "model.kind", required=default_kind is None, default=default_kind)
    if kind not in kinds:
        raise ConfigError("model.kind", f"this mode supports {'|'.join(kinds)}, got {kind!r}")
    if kind == "logistic" and n_classes != 2:
        raise ConfigError("model.kind", f"logistic clients need 2 classes, got {n_classes}")
    m_list = _get(cfg, "quantization.m_list", conv=_list_of(_pos_int))
    case = _get(cfg, "quantization.case", conv=str)
    if m_list is not None:
        if len(m_list) != n_clients:
            raise ConfigError("quantization.m_list", f"need {n_clients} entries")
    elif case is not None:
        try:
            m_list = mixed_precision_m(case, n_clients)
        except ValueError as exc:
            raise ConfigError("quantization.case", str(exc)) from None
    else:
        m_list = [_get(cfg, "quantization.m", default=4, conv=_pos_int)] * n_clients
    return dict(
        m_list=m_list,
        model=kind,
        hidden=_get(cfg, "model.hidden", default=12, conv=_pos_int),
        l2=_get(cfg, "model.l2", default=0.0, conv=_nonneg),
        c_max=_get(cfg, "quantization.c_max", default=3.0, conv=_pos),
        exempt_first_last=_get(cfg, "quantization.exempt_first_last", default=False, conv=_flag),
    )


def _partition_size(cfg: dict) -> tuple[int, int]:
    return (_get(cfg, "partition.clients", required=True, conv=_pos_int),
            _get(cfg, "partition.classes_per_client", required=True, conv=_pos_int))


def _centralized_train(cfg: dict, seed: int, hp: HyperParams):
    """``train(out_dir)`` of a centralized run: one model, initialised from ``Rng(seed)``."""
    _refuse(cfg, ("quantization.m_list", "quantization.case"),
            "centralized mode trains one model; set quantization.m")
    spec = _client_spec(cfg, 1, kinds=("quadratic", "mlp"), default_kind=None)
    if spec["model"] == "quadratic":
        targets = _get(cfg, "model.targets", required=True,
                       conv=_checked(_list_of(_finite), "nonempty list of finite number", len))
        curvature = _get(cfg, "model.curvature", required=True, conv=_list_of(_pos))
        if len(curvature) != len(targets):
            raise ConfigError("model.curvature", f"need {len(targets)} entries, one per target")
        if hp.batch_size is not None:
            raise ConfigError("hyper.batch_size", "the quadratic model has no samples to draw")
        loss, test = quadratic_loss(targets, curvature), None
    else:
        task = _build_task(cfg, seed)
        loss = _make_loss("mlp", task.train, task.n_classes, spec["hidden"], spec["l2"])
        test = task.test
    rng = Rng(seed)
    # a stream only when minibatches are drawn, so full-batch checkpoints keep rng_state null
    data_rng = rng.spawn(2) if hp.batch_size is not None else None
    client = make_client(0, loss, init_weights(loss.dim, rng), spec["m_list"][0],
                         c_max=spec["c_max"], exempt_first_last=spec["exempt_first_last"],
                         test=test, data_rng=data_rng)

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
        except PartitionError as exc:
            print(f"error: invalid config: partition: {exc}", file=sys.stderr)
            return 2
        except ConfigError as exc:
            print(f"error: invalid config: {exc}", file=sys.stderr)
            return 2
        except DivergenceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    return command


def read_run_config(cfg: dict):
    """``(mode, seed, hp, train)`` of a checked ``run`` config; nothing has run yet.

    ``train(out_dir)`` runs the mode, writes its partition or checkpoint to
    ``out_dir`` if it has one, and returns the summary rows and metrics records.
    """
    mode = _get(cfg, "mode", required=True)
    if mode not in MODES:
        raise ConfigError("mode", f"must be one of {MODES}")
    seed = _effective_seed(cfg)
    hp = build_hyper(cfg)
    if mode == "centralized":
        return mode, seed, hp, _centralized_train(cfg, seed, hp)
    _refuse(cfg, ("hyper.checkpoint_every",), "only a centralized run writes checkpoints")
    task = _build_task(cfg, seed)
    part_seed = _get(cfg, "partition.seed", default=seed, conv=_nonneg_int)
    partition = partition_noniid(task.train, *_partition_size(cfg), part_seed)
    spec = _client_spec(cfg, partition.n_clients, task.n_classes)
    clients = build_clients(task, partition, seed=part_seed, **spec)

    def train(out_dir: Path):
        export_partition_json(partition, out_dir / "partition.json")
        return run_mode(mode, clients, hp)
    return mode, seed, hp, train


@_config_command
def cmd_run(cfg: dict, out_override) -> int:
    mode, seed, hp, train = read_run_config(cfg)
    out_dir = Path(out_override or _get(cfg, "out_dir", default=f"runs/{mode}", conv=str))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("metrics.jsonl", "summary.csv", "partition.json", "checkpoint.json"):
        (out_dir / name).unlink(missing_ok=True)  # a diverged rerun must leave no stale outputs
    write_atomic(out_dir / "manifest.json", [json.dumps(
        {"package_version": __version__, "seed": seed, "hyperparams_hash": hp.config_hash(),
         "config": cfg}, indent=2)])
    rows, records = train(out_dir)
    export_metrics(records, out_dir / "metrics.jsonl")
    _write_csv(out_dir / "summary.csv", ["client_id", "bits", "acc_fp_eval", "acc_quantized",
                                         "final_total", "final_gap"], rows)

    accs = [r["acc_quantized"] for r in rows if r.get("acc_quantized") is not None]
    gap = rows[0].get("final_gap")
    bits = ", ".join(f"{r['bits']:g}" for r in rows[:8])
    print(f"mode={mode} clients={len(rows)} bits=[{bits}{', ...' if len(rows) > 8 else ''}]")
    if accs:
        print(f"avg quantized test accuracy: {float(np.mean(accs)):.4f}")
    if gap is not None:
        print(f"final stationarity gap (client 0): {gap:.3e}")
    print(f"outputs in {out_dir}")
    return 0


def cmd_gradcheck(tol: float = 1e-5, instances: int = 1000, seed: int = 20240,
                  inject_fault: bool = False) -> int:
    grad = run_gradient_suite(n_instances=instances, tol=tol, seed=seed, broken=inject_fault)
    print(f"gradient suite: {grad.n_instances} instances, max rel err {grad.max_err:.3e} "
          f"({grad.detail or 'n/a'}), {grad.elapsed_s:.1f}s -> "
          f"{'ok' if grad.passed else 'FAIL'}")
    prox = run_prox_suite(n_instances=instances, seed=seed + 1)
    print(f"prox suite: {prox.n_instances} instances, max deviation {prox.max_err:.3e} "
          f"({prox.detail or 'n/a'}), {prox.elapsed_s:.1f}s -> "
          f"{'ok' if prox.passed else 'FAIL'}")
    return 0 if (grad.passed and prox.passed) else 1


def read_compare_config(cfg: dict):
    """The ``compare_modes`` arguments ``(modes, seeds, task_cfg, client_cfg, hp)``, checked."""
    modes = _get(cfg, "modes", default=[], conv=_list_of(_compare_mode))
    if not modes:
        raise ConfigError("modes", "must list at least one mode")
    seeds = _get(cfg, "seeds", conv=_list_of(_nonneg_int))
    if seeds is None:
        seeds = list(range(1, _get(cfg, "num_seeds", default=3, conv=_pos_int) + 1))
    if not seeds or len(set(seeds)) != len(seeds):
        raise ConfigError("seeds", "must list at least one seed, and no seed twice")
    _refuse(cfg, ("dataset.seed", "partition.seed"),
            "compare draws the dataset and the partition from each entry of seeds")
    _refuse(cfg, ("hyper.checkpoint_every",), "only a centralized run writes checkpoints")
    if _get(cfg, "dataset.kind", default="blobs") != "blobs":
        raise ConfigError("dataset.kind", "compare draws a blobs dataset per seed")
    task_cfg = _blob_fields(cfg)
    n, k = _partition_size(cfg)
    client_cfg = dict(n_clients=n, classes_per_client=k,
                      **_client_spec(cfg, n, task_cfg["n_classes"]))
    return modes, seeds, task_cfg, client_cfg, build_hyper(cfg)


@_config_command
def cmd_compare(cfg: dict, out_override) -> int:
    """Run several protocols on the dataset and partition drawn from each seed."""
    modes, seeds, task_cfg, client_cfg, hp = read_compare_config(cfg)
    out_dir = Path(out_override or _get(cfg, "out_dir", default="runs/compare", conv=str))
    records = compare_modes(task_cfg, client_cfg, hp, modes, seeds)  # may refuse a partition
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "comparison.csv", ["mode", "seed", "avg_test_acc"], records)
    by_seed = {}
    for rec in records:
        by_seed.setdefault(rec["seed"], {})[rec["mode"]] = rec["avg_test_acc"]
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
    parser.add_argument("--log-level", default="WARNING")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("run", "execute one experiment from a JSON config"),
                       ("compare", "run several protocols on identical partitions")):
        p_cfg = sub.add_parser(name, help=text)
        p_cfg.add_argument("--config", required=True)
        p_cfg.add_argument("--out", default=None)

    p_grad = sub.add_parser("gradcheck", help="finite-difference and prox oracle suites")
    p_grad.add_argument("--tol", type=float, default=1e-5)
    p_grad.add_argument("--instances", type=int, default=1000)
    p_grad.add_argument("--inject-fault", action="store_true",
                        help=argparse.SUPPRESS)  # detector self-test

    args = parser.parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper(), logging.WARNING))

    if args.command == "gradcheck":
        return cmd_gradcheck(tol=args.tol, instances=args.instances,
                             inject_fault=args.inject_fault)
    return {"run": cmd_run, "compare": cmd_compare}[args.command](args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
