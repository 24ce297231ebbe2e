"""``tools/output_digests.py``: the standard set of runs and the digests of their outputs."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digests",
                                                  ROOT / "tools" / "output_digests.py")
    tool = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tool
    spec.loader.exec_module(tool)
    return tool


def test_standard_cases_cover_every_config_variant_and_workload():
    cases = load_tool().standard_cases()
    assert list(cases) == [
        "centralized_mlp", "centralized_quadratic", "compare", "fedavg", "local", "qupel",
        "qupel-batch8", "qupel-ft0", "centralized_mlp-checkpoint50", "qupel-soft",
        "qupel-soft-mixed", "perfbench-qupel-10c", "perfbench-qupel-100c-mixed",
        "perfbench-centralized-mlp-wide", "qupel-300c"]
    assert {name for name, (command, _) in cases.items() if command == "compare"} == {"compare"}
    assert cases["qupel-batch8"][1]["hyper"]["batch_size"] == 8
    assert cases["qupel-ft0"][1]["hyper"]["fine_tune_start"] == 0
    assert cases["centralized_mlp-checkpoint50"][1]["hyper"]["checkpoint_every"] == 50
    for name in ("qupel-soft", "qupel-soft-mixed"):
        assert cases[name][1]["quantization"]["hard_limit"] is False
        assert cases[name][1]["quantization"]["sharpness"] == 8.0
    mixed = cases["qupel-soft-mixed"][1]
    assert mixed["quantization"]["m_list"] == [8, 1, 4, 2, 8, 4, 1, 2, 8, 4]
    assert "m" not in mixed["quantization"] and mixed["hyper"]["batch_size"] == 8
    assert cases["perfbench-qupel-10c"][1]["seed"] == 4
    scaled = cases["qupel-300c"][1]
    assert (scaled["partition"]["clients"], scaled["dataset"]["per_class"]) == (300, 1500)
    assert scaled["seed"] == 4


def test_two_runs_of_one_case_give_equal_digests(tmp_path):
    tool = load_tool()
    cfg = json.loads((ROOT / "configs" / "fedavg.json").read_text())
    first = tool.run_case("fedavg", "run", cfg, tmp_path / "a")
    second = tool.run_case("fedavg", "run", cfg, tmp_path / "b")
    assert first == second
    assert [line.split("  ")[1] for line in first] == [
        f"fedavg/{name}" for name in ("manifest.json", "metrics.jsonl", "partition.json",
                                      "stdout.txt", "summary.csv")]
    stdout = (tmp_path / "a" / "fedavg" / "stdout.txt").read_text()
    assert stdout.endswith("outputs in OUT_DIR/fedavg\n")
