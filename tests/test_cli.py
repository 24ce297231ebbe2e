import csv
import json
from pathlib import Path

import numpy as np
import pytest

from qupel import cli, experiments
from qupel.cli import main
from qupel.data import partition_noniid

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def quadratic_cfg(out_dir, steps=4000):
    return {
        "mode": "centralized",
        "seed": 7,
        "out_dir": out_dir,
        "model": {"kind": "quadratic", "targets": [0.1, 0.9], "curvature": [1.0, 1.0]},
        "quantization": {"m": 2, "hard_limit": True, "c_max": 5.0},
        "hyper": {"eta1": 0.3, "eta2": 0.3, "steps": steps,
                  "lambda": {"kind": "constant", "value": 0.05}, "metrics_every": 100},
    }


def federated_cfg(mode, out_dir, lambda_p=0.0, steps=60):
    hyper = {"eta1": 0.1, "eta2": 0.01, "steps": steps, "tau": 5,
             "lambda": {"kind": "linear", "base": 1e-3, "cap": 0.05},
             "metrics_every": 20}
    if mode == "qupel":
        hyper.update(eta3=0.3, lambda_p=lambda_p)
    return {
        "mode": mode,
        "seed": 3,
        "out_dir": out_dir,
        "model": {"kind": "mlp", "hidden": 6},
        "dataset": {"kind": "blobs", "classes": 4, "dim": 4, "per_class": 30, "spread": 0.5},
        "partition": {"clients": 3, "classes_per_client": 2},
        "quantization": {"m": 4, "hard_limit": True, "c_max": 3.0},
        "hyper": hyper,
    }


def centralized_mlp_cfg(out_dir, steps=20):
    return {
        "mode": "centralized",
        "seed": 2,
        "out_dir": out_dir,
        "model": {"kind": "mlp", "hidden": 6},
        "dataset": {"kind": "blobs", "classes": 4, "dim": 4, "per_class": 30, "spread": 0.5},
        "quantization": {"m": 4, "hard_limit": True, "c_max": 3.0},
        "hyper": {"eta1": 0.1, "eta2": 0.01, "steps": steps, "fine_tune_start": 16,
                  "metrics_every": 5},
    }


def read_summary(out_dir):
    with open(out_dir + "/summary.csv") as fh:
        return list(csv.DictReader(fh))


class TestRunCommand:
    def test_centralized_quadratic_converges(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", quadratic_cfg(str(tmp_path / "out")))
        assert main(["run", "--config", cfg]) == 0
        rows = read_summary(str(tmp_path / "out"))
        assert float(rows[0]["final_gap"]) < 1e-6

    def test_missing_eta1_names_field(self, tmp_path, capsys):
        cfg_dict = quadratic_cfg(str(tmp_path / "out"))
        del cfg_dict["hyper"]["eta1"]
        cfg = write_cfg(tmp_path, "c.json", cfg_dict)
        assert main(["run", "--config", cfg]) == 2
        assert "hyper.eta1" in capsys.readouterr().err

    def test_bad_mode(self, tmp_path, capsys):
        cfg_dict = quadratic_cfg(str(tmp_path / "out"))
        cfg_dict["mode"] = "banana"
        cfg = write_cfg(tmp_path, "c.json", cfg_dict)
        assert main(["run", "--config", cfg]) == 2

    def test_unreadable_config(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg_dict = quadratic_cfg(str(tmp_path / "out"), steps=300)
        cfg_dict["hyper"]["eta1"] = 5.0  # far beyond 2/L for curvature 1
        cfg_dict["model"]["curvature"] = [10.0, 10.0]
        cfg = write_cfg(tmp_path, "c.json", cfg_dict)
        assert main(["run", "--config", cfg]) == 3

    @pytest.mark.parametrize("hard_limit", [True, False], ids=["hard", "soft"])
    def test_overflow_within_one_step_exits_3(self, tmp_path, capsys, hard_limit):
        cfg_dict = quadratic_cfg(str(tmp_path / "out"), steps=300)
        cfg_dict["model"]["curvature"] = [1e300, 1.0]
        cfg_dict["hyper"]["eta1"] = 1e20  # the first gradient step overflows
        cfg_dict["quantization"]["hard_limit"] = hard_limit
        assert main(["run", "--config", write_cfg(tmp_path, "c.json", cfg_dict)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: client 0 objective diverged at step 0:")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("hard_limit", [True, False], ids=["hard", "soft"])
    def test_nonfinite_start_exits_3(self, tmp_path, capsys, hard_limit):
        cfg_dict = quadratic_cfg(str(tmp_path / "out"), steps=300)
        # F_0 = 0.5 * sum(h * (x - a)^2) overflows to +inf before any step
        cfg_dict["model"].update(curvature=[1e308, 1e308], targets=[1.9, -1.92])
        cfg_dict["quantization"].update(m=1, hard_limit=hard_limit)
        assert main(["run", "--config", write_cfg(tmp_path, "c.json", cfg_dict)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: client 0 cannot start:")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("label", ["inf", "1e300", "nan"])
    def test_csv_label_outside_int64_exits_2_naming_the_line(self, tmp_path, capsys, label):
        good = "f0,f1,label\n0.5,1.5,0\n-0.25,2.0,1\n"
        (tmp_path / "train.csv").write_text(good + f"0.1,0.2,{label}\n")
        (tmp_path / "test.csv").write_text(good)
        cfg_dict = centralized_mlp_cfg(str(tmp_path / "out"))
        cfg_dict["dataset"] = {"kind": "csv", "train": str(tmp_path / "train.csv"),
                               "test": str(tmp_path / "test.csv")}
        assert main(["run", "--config", write_cfg(tmp_path, "c.json", cfg_dict)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: dataset.train: line 4:")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_qupel_lambda0_matches_local(self, tmp_path, capsys):
        q = write_cfg(tmp_path, "q.json", federated_cfg("qupel", str(tmp_path / "q"), lambda_p=0.0))
        l = write_cfg(tmp_path, "l.json", federated_cfg("local", str(tmp_path / "l")))
        assert main(["run", "--config", q]) == 0
        assert main(["run", "--config", l]) == 0
        rows_q = read_summary(str(tmp_path / "q"))
        rows_l = read_summary(str(tmp_path / "l"))
        for rq, rl in zip(rows_q, rows_l):
            assert rq["acc_quantized"] == rl["acc_quantized"]
            assert rq["acc_fp_eval"] == rl["acc_fp_eval"]

    def test_manifest_rerun_reproduces_metrics(self, tmp_path, capsys):
        cfg_dict = federated_cfg("qupel", str(tmp_path / "a"), lambda_p=0.4)
        cfg = write_cfg(tmp_path, "c.json", cfg_dict)
        assert main(["run", "--config", cfg]) == 0
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        cfg2 = write_cfg(tmp_path, "c2.json", manifest["config"])
        assert main(["run", "--config", cfg2, "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
        b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
        assert a == b

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        cfg_dict = federated_cfg("local", str(tmp_path / "a"))
        cfg = write_cfg(tmp_path, "c.json", cfg_dict)
        assert main(["run", "--config", cfg]) == 0
        monkeypatch.setenv("QUPEL_SEED", "99")
        cfg_dict["out_dir"] = str(tmp_path / "b")
        cfg2 = write_cfg(tmp_path, "c2.json", cfg_dict)
        assert main(["run", "--config", cfg2]) == 0
        a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert a["seed"] == 3 and b["seed"] == 99

    def test_fedavg_runs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "f.json", federated_cfg("fedavg", str(tmp_path / "f")))
        assert main(["run", "--config", cfg]) == 0
        rows = read_summary(str(tmp_path / "f"))
        assert all(r["bits"] == "32" for r in rows)

    def test_partition_export_written(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "q.json", federated_cfg("qupel", str(tmp_path / "q")))
        assert main(["run", "--config", cfg]) == 0
        payload = json.loads((tmp_path / "q" / "partition.json").read_text())
        assert len(payload["indices"]) == 3
        assert all(len(a) == 2 for a in payload["assignments"])


class TestMinibatchRuns:
    @pytest.mark.parametrize("mode", ["qupel", "local", "fedavg", "centralized"])
    def test_runs_and_repeats_bitwise(self, tmp_path, capsys, mode):
        if mode == "centralized":
            cfg_dict = centralized_mlp_cfg("")
        else:
            cfg_dict = federated_cfg(mode, "", lambda_p=0.5, steps=20)
        cfg_dict["hyper"]["batch_size"] = 8
        outs = []
        for name in ("a", "b", "full"):
            if name == "full":
                del cfg_dict["hyper"]["batch_size"]
            cfg_dict["out_dir"] = str(tmp_path / name)
            assert main(["run", "--config", write_cfg(tmp_path, f"{name}.json", cfg_dict)]) == 0
            outs.append((tmp_path / name / "metrics.jsonl").read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]  # the minibatches were really drawn

    def test_quadratic_model_rejects_batch_size(self, tmp_path, capsys):
        cfg_dict = quadratic_cfg(str(tmp_path / "out"), steps=10)
        cfg_dict["hyper"]["batch_size"] = 1
        assert main(["run", "--config", write_cfg(tmp_path, "c.json", cfg_dict)]) == 2
        assert "hyper.batch_size" in capsys.readouterr().err

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_nonpositive_batch_size_rejected(self, tmp_path, capsys, batch_size):
        cfg_dict = federated_cfg("qupel", str(tmp_path / "out"))
        cfg_dict["hyper"]["batch_size"] = batch_size
        assert main(["run", "--config", write_cfg(tmp_path, "c.json", cfg_dict)]) == 2
        assert "batch_size" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_default_suite_passes(self, capsys):
        assert main(["gradcheck", "--instances", "40"]) == 0
        out = capsys.readouterr().out
        assert "gradient suite" in out and "ok" in out

    def test_injected_fault_detected(self, capsys):
        assert main(["gradcheck", "--instances", "5", "--inject-fault"]) == 1

    def test_impossible_tolerance_fails(self, capsys):
        assert main(["gradcheck", "--instances", "10", "--tol", "1e-12"]) == 1


class TestCompareCommand:
    def test_empty_modes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cmp.json", {"modes": [],
                                               "dataset": {}, "partition": {}})
        assert main(["compare", "--config", cfg]) == 2

    def test_small_comparison(self, tmp_path, capsys):
        base = federated_cfg("qupel", str(tmp_path / "cmp"), lambda_p=0.4, steps=40)
        cfg_dict = {
            "modes": ["qupel", "local", "fedavg"],
            "seeds": [1],
            "out_dir": str(tmp_path / "cmp"),
            "model": base["model"],
            "dataset": base["dataset"],
            "partition": base["partition"],
            "quantization": base["quantization"],
            "hyper": base["hyper"],
        }
        cfg = write_cfg(tmp_path, "cmp.json", cfg_dict)
        assert main(["compare", "--config", cfg]) == 0
        with open(tmp_path / "cmp" / "comparison.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["mode"] for r in rows} == {"qupel", "local", "fedavg"}
        out = capsys.readouterr().out
        assert "ordering" in out


class TestRerunSameOutDir:
    def test_second_run_replaces_the_first(self, tmp_path, capsys):
        cfg_dict = federated_cfg("qupel", str(tmp_path / "twice"), lambda_p=0.4, steps=3)
        cfg = write_cfg(tmp_path, "c.json", cfg_dict)
        assert main(["run", "--config", cfg]) == 0
        assert main(["run", "--config", cfg]) == 0
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "once")]) == 0
        for name in ("metrics.jsonl", "summary.csv", "partition.json"):
            assert (tmp_path / "twice" / name).read_bytes() == \
                (tmp_path / "once" / name).read_bytes(), name

    def test_diverged_rerun_leaves_no_stale_outputs(self, tmp_path, capsys):
        cfg_dict = quadratic_cfg(str(tmp_path / "out"), steps=300)
        assert main(["run", "--config", write_cfg(tmp_path, "a.json", cfg_dict)]) == 0
        cfg_dict["hyper"]["eta1"] = 5.0
        cfg_dict["model"]["curvature"] = [10.0, 10.0]
        assert main(["run", "--config", write_cfg(tmp_path, "b.json", cfg_dict)]) == 3
        assert not (tmp_path / "out" / "metrics.jsonl").exists()
        assert not (tmp_path / "out" / "summary.csv").exists()


def compare_cfg(out_dir):
    base = federated_cfg("qupel", out_dir, lambda_p=0.4, steps=5)
    return {"modes": ["qupel", "local"], "seeds": [1], "out_dir": out_dir,
            **{k: base[k] for k in ("model", "dataset", "partition", "quantization", "hyper")}}


BASES = {  # base config name -> (command, config builder)
    "compare": ("compare", compare_cfg),
    "run": ("run", lambda out: federated_cfg("qupel", out, steps=5)),
    "centralized": ("run", centralized_mlp_cfg),
    "quadratic": ("run", lambda out: quadratic_cfg(out, steps=5)),
}


def per_class_4(cfg):
    cfg["dataset"]["per_class"] = 4  # no test split
    if "partition" in cfg:
        cfg["partition"]["clients"] = 2


INVALID_CONFIGS = [
    ("compare", lambda c: c["dataset"].pop("classes"), "dataset.classes"),
    ("compare", lambda c: c.update(dataset={"kind": "csv", "train": "a.csv", "test": "b.csv"}),
     "dataset.kind"),
    ("compare", lambda c: c["partition"].pop("clients"), "partition.clients"),
    ("run", lambda c: c["model"].update(kind="foo"), "model.kind"),
    ("run", lambda c: c["model"].update(kind="logistic"), "model.kind"),  # on 4 classes
    ("run", lambda c: c["quantization"].update(case="7bits"), "quantization.case"),
    ("run", lambda c: c["partition"].update(clients=1000), "partition"),
    ("run", lambda c: c["hyper"].update(fine_tune_start="x"), "hyper.fine_tune_start"),
    ("run", lambda c: c["hyper"].update(checkpoint_every="x"), "hyper.checkpoint_every"),
    ("run", lambda c: c["quantization"].update(sharpness="sharp"), "quantization.sharpness"),
    ("compare", lambda c: c["partition"].update(clients=1000), "partition"),
    ("compare", lambda c: c["partition"].update(classes_per_client=99), "partition"),
    ("compare", lambda c: c["quantization"].update(c_max=-1), "quantization.c_max"),
    ("compare", lambda c: c["dataset"].update(seed=5), "dataset.seed"),
    ("compare", lambda c: c["partition"].update(seed=5), "partition.seed"),
    ("run", lambda c: c["quantization"].update(m_list=["x", 4, 4]), "quantization.m_list"),
    ("run", lambda c: c["quantization"].update(c_max=-1), "quantization.c_max"),
    ("run", lambda c: c["quantization"].update(m=0), "quantization.m"),
    ("run", lambda c: c.update(quantization="x"), "quantization"),
    ("run", lambda c: c["model"].update(hidden="x"), "model.hidden"),
    ("run", lambda c: c["model"].update(l2=-1), "model.l2"),
    ("run", lambda c: c["dataset"].update(per_class="x"), "dataset.per_class"),
    ("run", lambda c: c["dataset"].update(spread=-1), "dataset.spread"),
    ("run", lambda c: c["hyper"].update({"lambda": "x"}), "hyper.lambda"),
    ("run", lambda c: c.update(seed="x"), "seed"),
    ("centralized", lambda c: c["quantization"].update(m="x"), "quantization.m"),
    ("centralized", lambda c: c["model"].update(hidden="x"), "model.hidden"),
    ("quadratic", lambda c: c["model"].update(curvature=[-1, 1]), "model.curvature"),
    ("quadratic", lambda c: c["model"].update(targets=[], curvature=[]), "model.targets"),
    ("run", lambda c: c["dataset"].update(classes=1), "dataset.classes"),
    ("run", lambda c: c["quantization"].update(hard_limit="false"), "quantization.hard_limit"),
    ("run", lambda c: c["hyper"].update(flip_w_update_sign="no"), "hyper.flip_w_update_sign"),
    ("run", lambda c: c["quantization"].update(exempt_first_last=1),
     "quantization.exempt_first_last"),
    ("centralized", lambda c: c["quantization"].update(m_list=[8]), "quantization.m_list"),
    ("centralized", lambda c: c["quantization"].update(case="3bits"), "quantization.case"),
    ("run", lambda c: c["hyper"].update(steps="3"), "hyper.steps"),
    ("run", lambda c: c["hyper"].update(steps=True), "hyper.steps"),
    ("run", lambda c: c["hyper"].update(tau=2.9), "hyper.tau"),
    ("run", lambda c: c["partition"].update(clients=2.5), "partition.clients"),
    ("run", lambda c: c["quantization"].update(m=4.7), "quantization.m"),
    ("run", lambda c: c["hyper"].update(eta1="0.1"), "hyper.eta1"),
    ("run", lambda c: c["hyper"].update(eta1=True), "hyper.eta1"),
    ("run", lambda c: c["hyper"].update(eta1=10**400), "hyper.eta1"),  # too large for a float
    ("run", lambda c: c["hyper"].update({"lambda": {"kind": "linear", "base": 0.1, "cap": -1}}),
     "hyper.lambda.cap"),
    ("run", lambda c: c["hyper"].update({"lambda": {"kind": "piecewise", "points": [[0, -0.1]]}}),
     "hyper.lambda.points"),
    ("run", lambda c: c["hyper"].update(eta2_decay=[[0, -1.0]]), "hyper.eta2_decay"),
    ("run", lambda c: c["hyper"].update(eta2=float("nan")), "hyper.eta2"),
    ("run", lambda c: c["hyper"].update(lambda_p=float("nan")), "hyper.lambda_p"),
    ("run", lambda c: c.update(seed=-5), "seed"),
    ("compare", lambda c: c.update(seeds=[-1]), "seeds"),
    ("run", per_class_4, "dataset.per_class"),
    ("compare", per_class_4, "dataset.per_class"),
    ("centralized", per_class_4, "dataset.per_class"),
    ("run", lambda c: c["dataset"].update(spread=0), "dataset.spread"),
    ("run", lambda c: c["hyper"].update(divergence_factor=-1), "hyper.divergence_factor"),
    ("centralized", lambda c: c["hyper"].update(checkpoint_every=0), "hyper.checkpoint_every"),
    ("centralized", lambda c: c["hyper"].update(checkpoint_every=-1), "hyper.checkpoint_every"),
    ("run", lambda c: c["hyper"].update(checkpoint_every=2), "hyper.checkpoint_every"),
    ("compare", lambda c: c["hyper"].update(checkpoint_every=2), "hyper.checkpoint_every"),
    ("compare", lambda c: c.update(seeds=[1, 1]), "seeds"),
    ("run", lambda c: c["hyper"].update(eta2_decay=[[5, 0.5], [0, 1.0]]), "hyper.eta2_decay"),
    ("run", lambda c: c["hyper"].update(eta2_decay=[[5, 0.5], [5, 1.0]]), "hyper.eta2_decay"),
    ("run", lambda c: c["hyper"].update(
        {"lambda": {"kind": "piecewise", "points": [[0, 0.1], [50, 0.2], [10, 0.3]]}}),
     "hyper.lambda.points"),
    ("run", lambda c: c["hyper"].update(
        {"lambda": {"kind": "piecewise", "points": [[0, 0.1], [10, 0.2], [10, 0.3]]}}),
     "hyper.lambda.points"),
    ("run", lambda c: c["hyper"].update({"lambda": {"kind": "piecewise", "points": [[5, 0.1]]}}),
     "hyper.lambda.points"),
    ("run", lambda c: c["hyper"].update({"lambda": {"kind": "piecewise"}}), "hyper.lambda.points"),
    ("run", lambda c: c["hyper"].update({"lambda": {"kind": "piecewise", "points": []}}),
     "hyper.lambda.points"),
    ("quadratic", lambda c: c["hyper"].update(eta2=1e300, eta2_decay=[[0, 1e10]]), "hyper"),
    ("quadratic", lambda c: c["hyper"].update({"eta2": 1e300, "lambda": 1e10}), "hyper"),
    ("quadratic", lambda c: c["hyper"].update({"lambda": {"kind": "linear", "base": 1e308},
                                              "divergence_factor": 1e308}), "hyper"),
]
INVALID_IDS = ["compare-no-classes", "compare-csv", "compare-no-clients", "model-kind",
        "logistic-multiclass", "precision-case", "infeasible-partition", "fine-tune-start",
        "checkpoint-every", "sharpness", "compare-infeasible-partition",
        "compare-classes-per-client", "compare-c-max", "compare-dataset-seed",
        "compare-partition-seed", "m-list", "c-max", "m-zero", "quantization-not-object",
        "hidden", "l2", "per-class", "spread", "lambda", "seed", "centralized-m",
        "centralized-hidden", "quadratic-curvature", "quadratic-no-targets", "one-class",
        "hard-limit-string", "flip-sign-string", "exempt-number", "centralized-m-list",
        "centralized-case", "steps-string", "steps-bool", "tau-fraction", "clients-fraction",
        "m-fraction", "eta1-string", "eta1-bool", "eta1-overflow", "lambda-cap-negative",
        "lambda-point-negative", "eta2-decay-negative", "eta2-nan", "lambda-p-nan",
        "seed-negative", "compare-seed-negative", "per-class-4", "compare-per-class-4",
        "centralized-per-class-4", "spread-zero", "divergence-factor-negative",
        "checkpoint-every-zero", "checkpoint-every-negative", "checkpoint-every-qupel",
        "compare-checkpoint-every", "compare-seeds-repeated", "eta2-decay-unsorted",
        "eta2-decay-repeated", "lambda-points-unsorted", "lambda-points-repeated",
        "lambda-points-late-start", "lambda-points-missing", "lambda-points-empty",
        "eta2-decay-overflow", "lambda-eta2-overflow", "lambda-ramp-overflow"]


@pytest.mark.parametrize("command, edit, field", INVALID_CONFIGS, ids=INVALID_IDS)
def test_invalid_config_exits_2_naming_the_field(tmp_path, capsys, command, edit, field):
    out = str(tmp_path / "out")
    command, make_cfg = BASES[command]
    cfg_dict = make_cfg(out)
    edit(cfg_dict)
    assert main([command, "--config", write_cfg(tmp_path, "c.json", cfg_dict)]) == 2
    assert f"invalid config: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("command, edit, field", INVALID_CONFIGS, ids=INVALID_IDS)
def test_invalid_config_writes_nothing(tmp_path, capsys, command, edit, field):
    command, make_cfg = BASES[command]
    cfg_dict = make_cfg(str(tmp_path / "out"))
    edit(cfg_dict)
    assert main([command, "--config", write_cfg(tmp_path, "c.json", cfg_dict)]) == 2
    assert not (tmp_path / "out").exists()


def test_invalid_config_leaves_earlier_outputs(tmp_path, capsys):
    cfg_dict = federated_cfg("qupel", str(tmp_path / "out"), steps=3)
    assert main(["run", "--config", write_cfg(tmp_path, "a.json", cfg_dict)]) == 0
    before = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    cfg_dict["partition"]["clients"] = 1000
    assert main(["run", "--config", write_cfg(tmp_path, "b.json", cfg_dict)]) == 2
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == before


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_is_valid(path, monkeypatch):
    monkeypatch.delenv("QUPEL_SEED", raising=False)
    cfg = json.loads(path.read_text())
    if "modes" in cfg:
        cli.read_compare_config(cfg)
    else:
        cli.read_run_config(cfg)


def test_run_and_compare_agree(tmp_path, capsys):
    cfg_dict = compare_cfg(str(tmp_path / "cmp"))
    cfg_dict["modes"] = ["qupel", "local", "fedavg"]
    cfg_dict["hyper"].update(steps=20, fine_tune_start=16)
    assert main(["compare", "--config", write_cfg(tmp_path, "cmp.json", cfg_dict)]) == 0
    with open(tmp_path / "cmp" / "comparison.csv") as fh:
        compared = {r["mode"]: r["avg_test_acc"] for r in csv.DictReader(fh)}
    for mode in cfg_dict["modes"]:
        run_dict = {k: v for k, v in cfg_dict.items() if k not in ("modes", "seeds")}
        run_dict.update(mode=mode, seed=cfg_dict["seeds"][0], out_dir=str(tmp_path / mode))
        assert main(["run", "--config", write_cfg(tmp_path, f"{mode}.json", run_dict)]) == 0
        accs = [float(r["acc_quantized"]) for r in read_summary(str(tmp_path / mode))]
        assert f"{float(np.mean(accs)):.17g}" == compared[mode], mode


def test_partition_drawn_once_per_run_and_per_compare_seed(tmp_path, capsys, monkeypatch):
    seeds = []

    def counting(ds, n_clients, k, seed):
        seeds.append(seed)
        return partition_noniid(ds, n_clients, k, seed)

    monkeypatch.setattr(cli, "partition_noniid", counting)
    monkeypatch.setattr(experiments, "partition_noniid", counting)
    run_dict = federated_cfg("qupel", str(tmp_path / "run"), steps=2)
    assert main(["run", "--config", write_cfg(tmp_path, "run.json", run_dict)]) == 0
    assert seeds == [3]
    cmp_dict = compare_cfg(str(tmp_path / "cmp"))
    cmp_dict.update(modes=["qupel", "local", "fedavg"], seeds=[1, 2])
    assert main(["compare", "--config", write_cfg(tmp_path, "cmp.json", cmp_dict)]) == 0
    assert seeds == [3, 1, 2]
