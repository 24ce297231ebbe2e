"""Benchmark of `qupel run`: three workloads, run-level metrics, traced layer split.

Run from the root of a qupel checkout:

    python3 perfbench/run.py --workload qupel-10c --seed 1 --seconds 30 --trace 0

Each workload is a config this script generates from ``--seed``; the program
sees only that config and runs as ``python3 -m qupel.cli run`` with ``src/``
on ``PYTHONPATH``, one process at a time (closed loop, one driver). Every run
gets a fresh output directory and its outputs are checked.

``--trace 0`` alternates full runs with zero-step runs (the set-up cost)
until ``--seconds`` are spent and prints the end-to-end metrics. ``--trace 1``
alternates untraced full runs with traced ones (``perfbench/traced.py``)
and prints the per-layer metrics. The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. See
``perfbench/NOTES.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# metrics.jsonl sha256 per workload/config seed/steps, kept across invocations
DIGESTS = WORK / "digests.json"
CHILD_TIMEOUT_S = 60.0
# no process runs past this many seconds after start, so an invocation ends
# within 180 s even when the program hangs or slows down many times over
HARD_LIMIT_S = 165.0
# config seeds per --seed: accuracy is averaged over them, and every run of
# a set reuses them, so each metrics.jsonl digest is checked for repeats
SUBSEEDS = 4
DATASET_SEED = 1

_HYPER = {
    "eta1": 0.1,
    "eta2": 0.005,
    "lambda": {"kind": "linear", "base": 1e-4, "cap": 0.05},
    "metrics_every": 50,
}
_FEDERATED = {"eta3": 0.3, "tau": 5, "lambda_p": 1.0}


@dataclass(frozen=True)
class Workload:
    clients: int
    steps: int
    config: dict = field(repr=False)  # everything but seed and steps

    @property
    def dim(self) -> int:
        """Parameters of the one-hidden-layer MLP, for the sync byte count."""
        d, k = self.config["dataset"]["dim"], self.config["dataset"]["classes"]
        h = self.config["model"]["hidden"]
        return d * h + h + h * k + k


WORKLOADS = {
    # configs/qupel.json: 10 clients x 4 classes, tanh-MLP 8-12-10, m=4
    "qupel-10c": Workload(clients=10, steps=200, config={
        "mode": "qupel",
        "model": {"kind": "mlp", "hidden": 12},
        "dataset": {"kind": "blobs", "classes": 10, "dim": 8, "per_class": 40, "spread": 0.65},
        "partition": {"clients": 10, "classes_per_client": 4},
        "quantization": {"m": 4, "hard_limit": True, "c_max": 3.0},
        "hyper": dict(_HYPER, **_FEDERATED),
    }),
    # same per-client work as qupel-10c, ten times the clients, 75% at m=8;
    # eta1=0.3 makes 30 steps reach a steady accuracy on every seed
    "qupel-100c-mixed": Workload(clients=100, steps=30, config={
        "mode": "qupel",
        "model": {"kind": "mlp", "hidden": 12},
        "dataset": {"kind": "blobs", "classes": 10, "dim": 8, "per_class": 500, "spread": 0.65},
        "partition": {"clients": 100, "classes_per_client": 4},
        "quantization": {"case": "2.75bits", "hard_limit": True, "c_max": 3.0},
        "hyper": dict(_HYPER, **_FEDERATED, eta1=0.3),
    }),
    # one model on 8000 rows: matmul-bound forward/backward passes
    "centralized-mlp-wide": Workload(clients=1, steps=20, config={
        "mode": "centralized",
        "model": {"kind": "mlp", "hidden": 64},
        "dataset": {"kind": "blobs", "classes": 10, "dim": 8, "per_class": 1000, "spread": 0.4},
        "quantization": {"m": 8, "hard_limit": True, "c_max": 3.0},
        "hyper": dict(_HYPER, eta1=0.5),  # converges in 20 steps on every seed
    }),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "client_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "acc_quantized_mean": "ratio",
}

# per-layer metric -> unit; "<span>.<quantity>" names are read off the spans
PER_LAYER_UNITS = {
    "quantizer.assign.calls_per_cs": "count",
    "quantizer.assign.self_us_per_cs": "us",
    "proxops.prox_x.calls_per_cs": "count",
    "proxops.prox_x.self_us_per_cs": "us",
    "proxops.prox_c.calls_per_cs": "count",
    "proxops.prox_c.self_us_per_cs": "us",
    "proxops.regularizer.calls_per_cs": "count",
    "proxops.regularizer.self_us_per_cs": "us",
    "losses.value.calls_per_cs": "count",
    "losses.value.self_us_per_cs": "us",
    "losses.gradient.calls_per_cs": "count",
    "losses.gradient.self_us_per_cs": "us",
    "losses.predict.calls_per_cs": "count",
    "losses.quant_grad_x.self_us_per_cs": "us",
    "losses.quant_grad_c.self_us_per_cs": "us",
    "losses.objective.incl_us_per_cs": "us",
    "centralized.stationarity_gap.self_us_per_cs": "us",
    "centralized.run.self_us_per_cs": "us",
    "federated.local_step.p50_us": "us",
    "federated.local_step.p99_us": "us",
    "federated.local_step.self_us_per_cs": "us",
    "federated.run.self_us_per_cs": "us",
    "federated.sync.calls": "count",
    "federated.sync.self_ms": "ms",
    "federated.sync.bytes_per_round": "B",
    "federated.diversity.self_ms": "ms",
    "data.make_blobs.ms": "ms",
    "data.partition.ms": "ms",
    "rng.normal.ms": "ms",
    "experiments.build_clients.ms": "ms",
    "experiments.summarize.ms": "ms",
    "diagnostics.export.ms": "ms",
    "diagnostics.export.bytes": "B",
    "diagnostics.accuracy.calls": "count",
    "diagnostics.accuracy.self_ms": "ms",
    "cli.self_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

# quantity -> (span field, divide by client-steps, scale from ns or count)
_QUANTITIES = {
    "calls_per_cs": ("calls", True, 1.0),
    "self_us_per_cs": ("self_ns", True, 1e-3),
    "incl_us_per_cs": ("incl_ns", True, 1e-3),
    "p50_us": ("p50_ns", False, 1e-3),
    "p99_us": ("p99_ns", False, 1e-3),
    "calls": ("calls", False, 1.0),
    "self_ms": ("self_ns", False, 1e-6),
    "ms": ("incl_ns", False, 1e-6),
}


def make_config(workload: Workload, seed: int, steps: int) -> dict:
    cfg = json.loads(json.dumps(workload.config))
    cfg["seed"] = seed
    cfg["dataset"]["seed"] = DATASET_SEED
    cfg["hyper"]["steps"] = steps
    cfg["hyper"]["fine_tune_start"] = steps * 4 // 5
    return cfg


# ---------------------------------------------------------------------------
# running one qupel process


@dataclass
class Run:
    kind: str  # "full" or "traced" (all steps), "setup" or "warmup" (zero steps)
    seed: int
    wall_s: float
    rss_mb: float
    problems: list[str]
    digest: str | None = None
    acc: float | None = None
    spans: dict | None = None


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QUPEL_SEED"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _launch(argv: list[str], run_dir: Path, timeout: float) -> tuple[int, float, float]:
    """Run one process to completion or kill; returns (exit code, wall s, max RSS MB)."""
    with open(run_dir / "stdout.txt", "wb") as out, open(run_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            # wait4 gives this child's own rusage, unlike RUSAGE_CHILDREN
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _check_outputs(out: Path, clients: int, steps: int, run: Run) -> None:
    """Append every failed output check to ``run.problems``."""
    try:
        raw = (out / "metrics.jsonl").read_bytes()
        rows = list(csv.DictReader((out / "summary.csv").open(encoding="utf-8")))
    except OSError as exc:
        run.problems.append(f"missing output: {exc}")
        return
    run.digest = hashlib.sha256(raw).hexdigest()
    lines = raw.splitlines()
    if len(lines) != clients * steps:
        run.problems.append(f"metrics.jsonl has {len(lines)} records, want {clients * steps}")
    try:
        totals = [json.loads(line)["F_total"] for line in lines]
    except (ValueError, KeyError, TypeError) as exc:
        run.problems.append(f"unreadable metrics record: {exc!r}")
    else:
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in totals):
            run.problems.append("non-finite F_total in metrics.jsonl")
    if len(rows) != clients:
        run.problems.append(f"summary.csv has {len(rows)} rows, want {clients}")
    try:
        accs = [float(r["acc_quantized"]) for r in rows]
    except (KeyError, ValueError) as exc:
        run.problems.append(f"unreadable acc_quantized: {exc!r}")
    else:
        if accs and all(0.0 <= a <= 1.0 for a in accs):
            run.acc = statistics.fmean(accs)
        else:
            run.problems.append("acc_quantized missing or outside [0, 1]")


class Bench:
    """One workload and seed: launches runs, checks them, keeps the results."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seeds = [seed * SUBSEEDS + j for j in range(SUBSEEDS)]
        self.runs: list[Run] = []
        self.hard_end = time.perf_counter() + HARD_LIMIT_S
        try:
            self.digests = json.loads(DIGESTS.read_text())
        except (OSError, ValueError):
            self.digests = {}

    def save_digests(self) -> None:
        DIGESTS.write_text(json.dumps(self.digests, indent=1, sort_keys=True))

    def run(self, kind: str, seed: int) -> Run:
        wl = self.workload
        steps = wl.steps if kind in ("full", "traced") else 0
        run_dir = WORK / f"{self.name}-{kind}-{seed}-{len(self.runs)}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        cfg_path, out, spans_path = run_dir / "config.json", run_dir / "out", run_dir / "spans.json"
        cfg_path.write_text(json.dumps(make_config(wl, seed, steps), indent=1))
        qupel_args = ["run", "--config", str(cfg_path), "--out", str(out)]
        if kind == "traced":
            argv = [sys.executable, str(HERE / "traced.py"), str(spans_path)] + qupel_args
        else:
            argv = [sys.executable, "-m", "qupel.cli"] + qupel_args
        timeout = min(CHILD_TIMEOUT_S, max(self.hard_end - time.perf_counter(), 1.0))
        code, wall, rss = _launch(argv, run_dir, timeout)
        run = Run(kind, seed, wall, rss, [])
        if code != 0:
            tail = (run_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
            run.problems.append(f"exit code {code}: {' '.join(tail)}")
        else:
            _check_outputs(out, wl.clients, steps, run)
        if kind == "traced" and not run.problems:
            try:
                run.spans = json.loads(spans_path.read_text())
            except (OSError, ValueError) as exc:
                run.problems.append(f"unreadable spans: {exc!r}")
            else:
                run.spans["export_bytes"] = (out / "metrics.jsonl").stat().st_size
        if run.digest is not None:
            key = f"{self.name}/{seed}/{steps}"
            want = self.digests.setdefault(key, run.digest)
            if run.digest != want:
                run.problems.append(f"metrics.jsonl digest {run.digest[:16]} differs from "
                                    f"{want[:16]} of an earlier run with the same config")
        if run.problems:
            print(f"FAILED {kind} run, seed {seed}: {'; '.join(run.problems)}", file=sys.stderr)
        else:
            shutil.rmtree(run_dir)
        self.runs.append(run)
        return run

    def loop(self, kinds: tuple[str, str], seconds: float, min_rounds: int) -> None:
        """Alternate the two kinds of run, one seed per round, until time is up."""
        deadline = time.perf_counter() + seconds
        round_s: list[float] = []
        while True:
            start = time.perf_counter()
            seed = self.seeds[len(round_s) % len(self.seeds)]
            for kind in kinds:
                self.run(kind, seed)
            round_s.append(time.perf_counter() - start)
            next_end = time.perf_counter() + statistics.median(round_s)
            if next_end > self.hard_end or (len(round_s) >= min_rounds and next_end > deadline):
                return

    def of(self, kind: str) -> list[Run]:
        return [r for r in self.runs if r.kind == kind]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.runs if r.problems)


# ---------------------------------------------------------------------------
# metrics


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _describe(name: str, values: list[float], unit: str) -> str:
    if not values:
        return f"{name}: no samples"
    return (f"{name}: median {_median(values):.6g} {unit} over {len(values)} runs "
            f"(min {min(values):.6g}, max {max(values):.6g})")


def end_to_end(bench: Bench) -> dict:
    wl = bench.workload
    full, setup = bench.of("full"), bench.of("setup")
    wall = _median([r.wall_s for r in full])
    setup_s = _median([r.wall_s for r in setup])
    by_seed = {}
    for r in full:
        if r.acc is not None:
            by_seed.setdefault(r.seed, r.acc)
    print(_describe("wall_s", [r.wall_s for r in full], "s"))
    print(_describe("setup_s", [r.wall_s for r in setup], "s"))
    print(_describe("peak_rss_mb", [r.rss_mb for r in full], "MB"))
    print(f"acc_quantized_mean per config seed: {by_seed}")
    return {
        "wall_s": wall,
        "setup_s": setup_s,
        "client_steps_per_s": wl.clients * wl.steps / max(wall - setup_s, 1e-9),
        "peak_rss_mb": _median([r.rss_mb for r in full]),
        "acc_quantized_mean": statistics.fmean(by_seed.values()) if by_seed else 0.0,
    }


def per_layer(bench: Bench) -> dict:
    wl = bench.workload
    traced = [r for r in bench.of("traced") if r.spans is not None]
    untraced_wall = _median([r.wall_s for r in bench.of("full")])
    client_steps = wl.clients * wl.steps

    counts = {json.dumps({n: s["calls"] for n, s in r.spans["spans"].items()}, sort_keys=True)
              for r in traced}
    if len(counts) > 1:
        traced[-1].problems.append("span call counts differ between traced runs")
        print("FAILED: span call counts differ between traced runs", file=sys.stderr)

    def from_spans(metric: str) -> float:
        span, quantity = metric.rsplit(".", 1)
        key, per_cs, scale = _QUANTITIES[quantity]
        vals = [r.spans["spans"].get(span, {}).get(key, 0) * scale for r in traced]
        return _median(vals) / (client_steps if per_cs else 1)

    special = {
        "federated.sync.bytes_per_round":
            2.0 * wl.clients * wl.dim * 8 if wl.config["mode"] == "qupel" else 0.0,
        "diagnostics.export.bytes": _median([r.spans["export_bytes"] for r in traced]),
        "cli.self_ms": _median([(r.wall_s - r.spans["top_ns"] * 1e-9) * 1e3 for r in traced]),
        "trace.coverage": _median([r.spans["top_ns"] * 1e-9 / r.wall_s for r in traced]),
        "trace.overhead": _median([r.wall_s for r in traced]) / untraced_wall
        if untraced_wall else 0.0,
    }
    print(_describe("untraced wall_s", [r.wall_s for r in bench.of("full")], "s"))
    print(_describe("traced wall_s", [r.wall_s for r in traced], "s"))
    return {m: special[m] if m in special else from_spans(m) for m in PER_LAYER_UNITS}


# ---------------------------------------------------------------------------
# machine and build record


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked of the library itself."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    sources = sorted(SRC.rglob("*.py"))
    tree = hashlib.sha256()
    for path in sources:
        tree.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "source_sha256": tree.hexdigest(),
    }


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "qupel" / "cli.py").is_file():
        print(f"error: no qupel sources at {SRC}; run from the root of a qupel checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK.mkdir(exist_ok=True)

    bench = Bench(args.workload, args.seed)
    wl = bench.workload
    print("machine " + json.dumps(machine_record()))
    print(f"workload {args.workload}: {wl.clients} clients x {wl.steps} steps, "
          f"config seeds {bench.seeds}")

    bench.run("warmup", bench.seeds[0])  # byte-compiles and fills the page cache; not timed
    if args.trace:
        bench.loop(("full", "traced"), args.seconds, min_rounds=2)
        metrics, units = per_layer(bench), PER_LAYER_UNITS
    else:
        bench.loop(("full", "setup"), args.seconds, min_rounds=2 * SUBSEEDS)
        metrics, units = end_to_end(bench), END_TO_END_UNITS
    bench.save_digests()

    attempted, failed = len(bench.runs), bench.failed
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"error_rate = {failed / attempted:.6g} ratio ({failed} of {attempted} runs failed a check)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
