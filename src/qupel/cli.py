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
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .centralized import (
    DivergenceError,
    HyperParams,
    LambdaSchedule,
    init_centers_from_weights,
    init_weights,
    run_centralized,
)
from .data import export_partition_json, load_csv, partition_noniid
from .diagnostics import evaluate_accuracy, export_metrics, run_gradient_suite, run_prox_suite
from .experiments import (
    BlobTask,
    build_blob_task,
    build_clients,
    compare_modes,
    mixed_precision_m,
    run_mode,
)
from .losses import QuantLayout, mlp_loss, quadratic_loss
from .quantizer import QuantConfig
from .rng import Rng

logger = logging.getLogger(__name__)

MODES = ("centralized", "qupel", "fedavg", "local")


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _get(cfg: dict, path: str, required: bool = False, default=None, conv=None):
    """The value at dotted ``path`` (null counts as absent), passed through ``conv`` if given."""
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or node.get(part) is None:
            if required:
                raise ConfigError(path, "missing required field")
            return default
        node = node[part]
    if conv is None:
        return node
    try:
        return conv(node)
    except (TypeError, ValueError):
        raise ConfigError(path, f"expected {conv.__name__}, got {node!r}") from None


def _lambda_schedule(node) -> LambdaSchedule:
    if node is None:
        return LambdaSchedule.constant(0.0)
    if isinstance(node, (int, float)):
        return LambdaSchedule.constant(float(node))
    kind = node.get("kind", "constant")
    if kind == "constant":
        return LambdaSchedule.constant(float(node.get("value", 0.0)))
    if kind == "linear":
        return LambdaSchedule.linear(float(node.get("base", 0.0)),
                                     cap=float(node.get("cap", float("inf"))))
    if kind == "piecewise":
        return LambdaSchedule.piecewise(node.get("points", []))
    raise ConfigError("hyper.lambda.kind", f"unknown schedule kind {kind!r}")


def build_hyper(cfg: dict) -> HyperParams:
    hyper = _get(cfg, "hyper", required=True)
    quant = cfg.get("quantization", {})
    decay = hyper.get("eta2_decay")
    try:
        qcfg = QuantConfig(sharpness=_get(cfg, "quantization.sharpness", default=8.0, conv=float),
                           hard_limit=bool(quant.get("hard_limit", True)))
        return HyperParams(
            eta1=_get(cfg, "hyper.eta1", required=True, conv=float),
            eta2=_get(cfg, "hyper.eta2", required=True, conv=float),
            steps=_get(cfg, "hyper.steps", required=True, conv=int),
            eta3=_get(cfg, "hyper.eta3", default=0.0, conv=float),
            lambda_schedule=_lambda_schedule(hyper.get("lambda")),
            lambda_p=_get(cfg, "hyper.lambda_p", default=0.0, conv=float),
            tau=_get(cfg, "hyper.tau", default=1, conv=int),
            fine_tune_start=_get(cfg, "hyper.fine_tune_start", conv=int),
            quant_cfg=qcfg,
            eta2_decay=tuple((int(s), float(f)) for s, f in decay) if decay else None,
            divergence_factor=_get(cfg, "hyper.divergence_factor", default=1e6, conv=float),
            metrics_every=_get(cfg, "hyper.metrics_every", default=1, conv=int),
            batch_size=_get(cfg, "hyper.batch_size", conv=int),
            flip_w_update_sign=bool(hyper.get("flip_w_update_sign", False)),
            checkpoint_every=_get(cfg, "hyper.checkpoint_every", conv=int),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("hyper", str(exc)) from exc


def _effective_seed(cfg: dict) -> int:
    env = os.environ.get("QUPEL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError("QUPEL_SEED", f"not an integer: {env!r}") from None
    return int(cfg.get("seed", 0))


def _blob_fields(ds: dict) -> dict:
    """The ``build_blob_task`` arguments of a blobs dataset config, except the seed."""
    for f in ("classes", "dim", "per_class", "spread"):
        if f not in ds:
            raise ConfigError(f"dataset.{f}", "missing required field")
    return dict(n_classes=int(ds["classes"]), dim=int(ds["dim"]),
                per_class=int(ds["per_class"]), spread=float(ds["spread"]))


def _build_task(cfg: dict, seed: int) -> BlobTask:
    ds = _get(cfg, "dataset", required=True)
    kind = ds.get("kind")
    if kind == "blobs":
        return build_blob_task(seed=int(ds.get("seed", seed)), **_blob_fields(ds))
    if kind == "csv":
        for f in ("train", "test"):
            if f not in ds:
                raise ConfigError(f"dataset.{f}", "missing required field")
        train = load_csv(ds["train"])
        test = load_csv(ds["test"])
        return BlobTask(train=train, test=test, n_classes=train.n_classes,
                        dim=train.features.shape[1])
    raise ConfigError("dataset.kind", f"unknown dataset kind {kind!r}")


def _client_kwargs(cfg: dict, n_clients: int, n_classes: int):
    quant = cfg.get("quantization", {})
    if "m_list" in quant:
        m_list = [int(m) for m in quant["m_list"]]
        if len(m_list) != n_clients:
            raise ConfigError("quantization.m_list", f"need {n_clients} entries")
    elif "case" in quant:
        try:
            m_list = mixed_precision_m(quant["case"], n_clients)
        except ValueError as exc:
            raise ConfigError("quantization.case", str(exc)) from None
    else:
        m_list = [int(quant.get("m", 4))] * n_clients
    model = cfg.get("model", {})
    kind = model.get("kind", "mlp")
    if kind not in ("mlp", "logistic"):
        raise ConfigError("model.kind", f"federated modes support mlp|logistic, got {kind!r}")
    if kind == "logistic" and n_classes != 2:
        raise ConfigError("model.kind", f"logistic clients need 2 classes, got {n_classes}")
    return dict(
        m_list=m_list,
        model=kind,
        hidden=int(model.get("hidden", 12)),
        l2=float(model.get("l2", 0.0)),
        c_max=float(quant.get("c_max", 3.0)),
        exempt_first_last=bool(quant.get("exempt_first_last", False)),
    )


def _write_summary(path, rows):
    fields = ["client_id", "bits", "acc_fp_eval", "acc_quantized", "final_total", "final_gap"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow(["" if row.get(f) is None else
                             (f"{row[f]:.17g}" if isinstance(row[f], float) else row[f])
                             for f in fields])


def _write_manifest(out_dir: Path, cfg: dict, seed: int, hp: HyperParams):
    manifest = {
        "package_version": __version__,
        "seed": seed,
        "hyperparams_hash": hp.config_hash(),
        "config": cfg,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)


def _run_centralized_mode(cfg: dict, seed: int, hp: HyperParams, out_dir: Path) -> list[dict]:
    model = _get(cfg, "model", required=True)
    kind = model.get("kind")
    quant = cfg.get("quantization", {})
    m = int(quant.get("m", 4))
    c_max = float(quant.get("c_max", 3.0))
    rng = Rng(seed)

    if kind == "quadratic":
        for f in ("targets", "curvature"):
            if f not in model:
                raise ConfigError(f"model.{f}", "missing required field")
        if hp.batch_size is not None:
            raise ConfigError("hyper.batch_size", "the quadratic model has no samples to draw")
        loss = quadratic_loss(model["targets"], model["curvature"])
        layout = QuantLayout.full(loss.dim)
        test = None
    elif kind == "mlp":
        task = _build_task(cfg, seed)
        loss = mlp_loss([task.dim, int(model.get("hidden", 12)), task.n_classes],
                        task.train.features, task.train.labels,
                        l2=float(model.get("l2", 0.0)))
        layout = QuantLayout.for_mlp(loss, exempt_first_last=bool(
            quant.get("exempt_first_last", False)))
        test = task.test
    else:
        raise ConfigError("model.kind", f"centralized mode supports quadratic|mlp, got {kind!r}")

    # a stream only when minibatches are drawn, so full-batch checkpoints keep rng_state null
    data_rng = rng.spawn(2) if hp.batch_size is not None else None
    x0 = init_weights(loss.dim, rng)
    centers = [init_centers_from_weights(x0[s:e], m, c_max=c_max) for s, e in layout.groups]
    res = run_centralized(loss, x0, centers, hp, layout=layout, test=test, rng=data_rng,
                          checkpoint_path=out_dir / "checkpoint.json"
                          if hp.checkpoint_every else None)
    export_metrics(res.history, out_dir / "metrics.jsonl", fmt="jsonl")
    last = res.history[-1] if res.history else None
    acc_fp = evaluate_accuracy(loss, res.x_final, test) if test is not None else None
    acc_q = evaluate_accuracy(loss, res.x_hard, test) if test is not None else None
    return [{
        "client_id": 0,
        "bits": float(np.log2(m)),
        "acc_fp_eval": acc_fp,
        "acc_quantized": acc_q,
        "final_total": last.total if last else None,
        "final_gap": last.stationarity_gap if last else None,
    }]


def _run_federated_mode(cfg: dict, mode: str, seed: int, hp: HyperParams,
                        out_dir: Path) -> list[dict]:
    n = _get(cfg, "partition.clients", required=True, conv=int)
    k = _get(cfg, "partition.classes_per_client", required=True, conv=int)
    part_seed = _get(cfg, "partition.seed", default=seed, conv=int)
    task = _build_task(cfg, seed)
    kwargs = _client_kwargs(cfg, n, task.n_classes)
    try:
        partition = partition_noniid(task.train, n, k, part_seed)
    except ValueError as exc:
        raise ConfigError("partition", str(exc)) from None
    export_partition_json(partition, out_dir / "partition.json")
    clients = build_clients(task, n, k, seed=part_seed, **kwargs)
    rows, results, extra = run_mode(mode, clients, hp)
    records = []
    if mode in ("qupel", "local"):
        for cs, res in zip(sorted(clients, key=lambda c: c.id), results):
            records.extend(m.as_record(client_id=cs.id) for m in res.history)
    else:
        records.extend(m.as_record(client_id=-1) for m in results[0].history)
    records.sort(key=lambda r: (r["step"], r.get("client_id", 0)))
    export_metrics(records, out_dir / "metrics.jsonl", fmt="jsonl")
    return rows


def cmd_run(config_path: str, out_override=None) -> int:
    try:
        cfg = json.loads(Path(config_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        mode = _get(cfg, "mode", required=True)
        if mode not in MODES:
            raise ConfigError("mode", f"must be one of {MODES}")
        seed = _effective_seed(cfg)
        hp = build_hyper(cfg)
        out_dir = Path(out_override or cfg.get("out_dir", f"runs/{mode}"))
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in ("metrics.jsonl", "summary.csv", "partition.json", "checkpoint.json"):
            (out_dir / name).unlink(missing_ok=True)  # a rerun must not append to old outputs
        _write_manifest(out_dir, cfg, seed, hp)
        if mode == "centralized":
            rows = _run_centralized_mode(cfg, seed, hp, out_dir)
        else:
            rows = _run_federated_mode(cfg, mode, seed, hp, out_dir)
        _write_summary(out_dir / "summary.csv", rows)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
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


def cmd_compare(config_path: str, out_override=None) -> int:
    try:
        cfg = json.loads(Path(config_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        modes = cfg.get("modes", [])
        if not modes:
            raise ConfigError("modes", "must list at least one mode")
        for m in modes:
            if m not in ("qupel", "local", "fedavg"):
                raise ConfigError("modes", f"unsupported mode {m!r}")
        seeds = cfg.get("seeds")
        if seeds is None:
            seeds = list(range(1, int(cfg.get("num_seeds", 3)) + 1))
        ds = _get(cfg, "dataset", required=True)
        if ds.get("kind", "blobs") != "blobs":
            raise ConfigError("dataset.kind", "compare draws a blobs dataset per seed")
        task_cfg = _blob_fields(ds)
        n = _get(cfg, "partition.clients", required=True, conv=int)
        k = _get(cfg, "partition.classes_per_client", required=True, conv=int)
        client_cfg = dict(n_clients=n, classes_per_client=k,
                          **_client_kwargs(cfg, n, task_cfg["n_classes"]))
        hp = build_hyper(cfg)
        out_dir = Path(out_override or cfg.get("out_dir", "runs/compare"))
        out_dir.mkdir(parents=True, exist_ok=True)
        records = compare_modes(task_cfg, client_cfg, hp, modes, seeds)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    with open(out_dir / "comparison.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "seed", "avg_test_acc"])
        for rec in records:
            writer.writerow([rec["mode"], rec["seed"], f"{rec['avg_test_acc']:.17g}"])
    by_seed = {}
    for rec in records:
        by_seed.setdefault(rec["seed"], {})[rec["mode"]] = rec["avg_test_acc"]
    for seed in sorted(by_seed):
        line = " ".join(f"{m}={v:.4f}" for m, v in sorted(by_seed[seed].items()))
        print(f"seed {seed}: {line}")
    if {"qupel", "local", "fedavg"} <= set(modes):
        ordered = sum(
            1 for accs in by_seed.values()
            if accs["qupel"] > accs["local"] > accs["fedavg"]
        )
        print(f"ordering qupel > local > fedavg holds in {ordered}/{len(by_seed)} seeds")
    print(f"outputs in {out_dir}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qupel",
                                     description="quantized personalized FL simulator")
    parser.add_argument("--log-level", default="WARNING")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)

    p_grad = sub.add_parser("gradcheck", help="finite-difference and prox oracle suites")
    p_grad.add_argument("--tol", type=float, default=1e-5)
    p_grad.add_argument("--instances", type=int, default=1000)
    p_grad.add_argument("--inject-fault", action="store_true",
                        help=argparse.SUPPRESS)  # detector self-test

    p_cmp = sub.add_parser("compare", help="run several protocols on identical partitions")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper(), logging.WARNING))

    if args.command == "run":
        return cmd_run(args.config, args.out)
    if args.command == "gradcheck":
        return cmd_gradcheck(tol=args.tol, instances=args.instances,
                             inject_fault=args.inject_fault)
    if args.command == "compare":
        return cmd_compare(args.config, args.out)
    return 2


if __name__ == "__main__":
    sys.exit(main())
