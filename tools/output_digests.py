"""Digest every output file of qupel's standard runs, to check that a change keeps them.

Run from anywhere, with an output directory that is absent or empty:

    python3 tools/output_digests.py OUT_DIR > digests.txt

Each case of ``standard_cases()`` runs as ``python3 -m qupel.cli`` with this
checkout's ``src/`` as PYTHONPATH and writes to ``OUT_DIR/<case>``. The case's
stdout is kept there as ``stdout.txt``, with ``OUT_DIR`` written in place of the
output directory, so it is digested too. The printout is one ``sha256  case/file``
line per output file, case by case and sorted by file within each. To compare two
commits, run the script in each checkout and ``diff`` the two printouts.

The cases are the shipped ``configs/*.json`` (``compare.json`` under ``compare``,
the rest under ``run``), ``qupel.json`` with minibatches of 8 and with
fine-tuning from step 0 (``qupel-ft0``, whose first step pins),
``centralized_mlp.json`` with a checkpoint every 50 steps, ``qupel.json`` in soft
mode at sharpness 8 (``qupel-soft``) and again with m = 8, 1, 4, 2, 8, 4, 1, 2, 8, 4
per client and minibatches of 8 (``qupel-soft-mixed``), and every perfbench
workload at config seed 4 and its own step count.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _perfbench():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _with_hyper(cfg: dict, **hyper) -> dict:
    return dict(cfg, hyper=dict(cfg["hyper"], **hyper))


def standard_cases() -> dict[str, tuple[str, dict]]:
    """Case name -> (qupel command, config), in the order they run."""
    configs = {path.stem: json.loads(path.read_text())
               for path in sorted((ROOT / "configs").glob("*.json"))}
    cases = {name: ("compare" if name == "compare" else "run", cfg)
             for name, cfg in configs.items()}
    cases["qupel-batch8"] = ("run", _with_hyper(configs["qupel"], batch_size=8))
    cases["qupel-ft0"] = ("run", _with_hyper(configs["qupel"], fine_tune_start=0))
    cases["centralized_mlp-checkpoint50"] = ("run", _with_hyper(configs["centralized_mlp"],
                                                                checkpoint_every=50))
    soft = dict(configs["qupel"], quantization=dict(configs["qupel"]["quantization"],
                                                     hard_limit=False, sharpness=8.0))
    cases["qupel-soft"] = ("run", soft)
    mixed = {k: v for k, v in soft["quantization"].items() if k != "m"}  # m_list replaces m
    cases["qupel-soft-mixed"] = ("run", _with_hyper(dict(soft, quantization=dict(
        mixed, m_list=[8, 1, 4, 2, 8, 4, 1, 2, 8, 4])), batch_size=8))
    bench = _perfbench()
    for name, workload in bench.WORKLOADS.items():
        cases[f"perfbench-{name}"] = ("run", bench.make_config(workload, 4, workload.steps))
    return cases


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_case(name: str, command: str, cfg: dict, out_root: Path) -> list[str]:
    """Run one case into ``out_root/name``, which must not hold older outputs, and return
    its ``sha256  name/file`` lines, sorted by file."""
    out = out_root / name
    env = {k: v for k, v in os.environ.items() if k != "QUPEL_SEED"}  # the CLI refuses it
    env["PYTHONPATH"] = str(ROOT / "src")
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / f"{name}.json"
        config.write_text(json.dumps(cfg))
        proc = subprocess.run([sys.executable, "-m", "qupel.cli", command, "--config",
                               str(config), "--out", str(out)],
                              cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: qupel {command} exited {proc.returncode}\n{proc.stderr}")
    (out / "stdout.txt").write_text(proc.stdout.replace(str(out_root), "OUT_DIR"))
    files = sorted(path for path in out.rglob("*") if path.is_file())
    return [f"{_sha256(path)}  {name}/{path.relative_to(out).as_posix()}" for path in files]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out_root = Path(argv[0]).resolve()
    if out_root.exists() and (not out_root.is_dir() or any(out_root.iterdir())):
        print(f"error: {out_root} must be absent or an empty directory", file=sys.stderr)
        return 2
    out_root.mkdir(parents=True, exist_ok=True)
    for name, (command, cfg) in standard_cases().items():
        for line in run_case(name, command, cfg, out_root):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
