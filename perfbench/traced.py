"""Run the qupel CLI with span tracing on its layers' public functions.

    python3 perfbench/traced.py SPANS.json run --config CFG --out DIR

Imports ``qupel`` (from ``PYTHONPATH``), replaces each function in ``SPANS``
with a timing wrapper in every qupel module that binds it (``from ... import``
gives a module its own binding, so patching only the defining module would
miss calls), runs ``qupel.cli.main`` on the remaining arguments and writes
the aggregated spans to SPANS.json when the run ends. The program itself is
not modified; the wrappers only measure.

A span's self time is its duration minus the durations of the spans it
called. Spans are aggregated in memory as they close (calls, inclusive and
self nanoseconds per name) and written once at the end, so tracing does no
I/O during the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

# span name -> (module, attribute); "Class.method" patches the class itself
SPANS = {
    "quantizer.assign": ("qupel.quantizer", "quantize_assignments"),
    "proxops.prox_x": ("qupel.proxops", "prox_x"),
    "proxops.prox_c": ("qupel.proxops", "prox_c"),
    "proxops.regularizer": ("qupel.proxops", "regularizer"),
    "losses.value": ("qupel.losses", "MlpLoss.value"),
    "losses.gradient": ("qupel.losses", "MlpLoss.gradient"),
    "losses.predict": ("qupel.losses", "MlpLoss.predict"),
    "losses.quant_grad_x": ("qupel.losses", "loss_quant_gradient_x"),
    "losses.quant_grad_c": ("qupel.losses", "loss_quant_gradient_c"),
    "losses.objective": ("qupel.losses", "eval_F_i_grouped"),
    "centralized.stationarity_gap": ("qupel.centralized", "stationarity_gap"),
    "centralized.run": ("qupel.centralized", "run_centralized"),
    "federated.local_step": ("qupel.federated", "client_local_step"),
    "federated.run": ("qupel.federated", "run_qupel"),
    "federated.sync": ("qupel.federated", "sync_round"),
    "federated.diversity": ("qupel.federated", "estimate_diversity"),
    "data.make_blobs": ("qupel.data", "make_blobs"),
    "data.partition": ("qupel.data", "partition_noniid"),
    "rng.normal": ("qupel.rng", "Rng.normal"),
    "experiments.build_clients": ("qupel.experiments", "build_clients"),
    "experiments.summarize": ("qupel.experiments", "summarize_clients"),
    "diagnostics.export": ("qupel.diagnostics", "export_metrics"),
    "diagnostics.accuracy": ("qupel.diagnostics", "evaluate_accuracy"),
}

# spans whose individual durations are kept for percentiles
SAMPLED = ("federated.local_step",)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, incl_ns, self_ns]
        self.samples: dict[str, list[int]] = {name: [] for name in SAMPLED}
        self.top_ns = 0  # summed duration of spans with no traced caller
        self._child_ns: list[int] = []  # one accumulator per open span

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        samples = self.samples.get(name)
        child_ns = self._child_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_ns.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                inner = child_ns.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - inner
                if child_ns:
                    child_ns[-1] += dur
                else:
                    self.top_ns += dur
                if samples is not None:
                    samples.append(dur)

        return traced

    def install(self) -> None:
        """Wrap every binding of every function in SPANS across the qupel modules."""
        importlib.import_module("qupel.cli")  # imports every module the CLI can reach
        modules = [m for n, m in sys.modules.items() if n == "qupel" or n.startswith("qupel.")]
        for name, (module_name, attr) in SPANS.items():
            owner = importlib.import_module(module_name)
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                setattr(cls, fn_name, self.wrap(name, vars(cls)[fn_name]))
                continue
            fn = getattr(owner, fn_name)
            wrapped = self.wrap(name, fn)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapped)

    def report(self) -> dict:
        out = {
            "spans": {name: {"calls": c, "incl_ns": i, "self_ns": s}
                      for name, (c, i, s) in self.stats.items()},
            "top_ns": self.top_ns,
        }
        for name, durs in self.samples.items():
            if len(durs) >= 2:
                cuts = statistics.quantiles(durs, n=100)
                out["spans"][name]["p50_ns"] = cuts[49]
                out["spans"][name]["p99_ns"] = cuts[98]
        return out


def main() -> int:
    if len(sys.argv) < 3:
        print("usage: traced.py SPANS.json <qupel arguments>", file=sys.stderr)
        return 2
    spans_path, qupel_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from qupel.cli import main as qupel_main

    try:
        return qupel_main(qupel_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh)


if __name__ == "__main__":
    sys.exit(main())
