import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qupel import cli
from qupel.cli import main
from qupel.data import partition_noniid
from qupel.experiments import build_clients
from qupel.rng import Rng

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


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
    """A ``run`` config of ``mode`` that sets only the keys the mode reads."""
    hyper = {"eta1": 0.1, "steps": steps, "metrics_every": 20}
    cfg = {
        "mode": mode,
        "seed": 3,
        "out_dir": out_dir,
        "model": {"kind": "mlp", "hidden": 6},
        "dataset": {"kind": "blobs", "classes": 4, "dim": 4, "per_class": 30, "spread": 0.5},
        "partition": {"clients": 3, "classes_per_client": 2},
        "hyper": hyper,
    }
    if mode != "fedavg":  # the modes that train centers
        hyper.update({"eta2": 0.01, "lambda": {"kind": "linear", "base": 1e-3, "cap": 0.05}})
        cfg["quantization"] = {"m": 4, "hard_limit": True, "c_max": 3.0}
    if mode != "local":
        hyper.update(tau=5)
    if mode == "qupel":
        hyper.update(eta3=0.3, lambda_p=lambda_p)
    return cfg


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

    @staticmethod
    def csv_clusters(path, labels, per_label, seed):
        """Separable 2-D clusters at (-2, 0), (0, 2) and (2, 0) for labels 3, 7 and 9."""
        means = {3: (-2.0, 0.0), 7: (0.0, 2.0), 9: (2.0, 0.0)}
        rng = Rng(seed)
        rows = [f"{float(v0)!r},{float(v1)!r},{lab}" for lab in labels
                for v0, v1 in [np.add(means[lab], 0.3 * rng.normal(2)) for _ in range(per_label)]]
        path.write_text("f0,f1,label\n" + "\n".join(rows) + "\n")
        return str(path)

    def csv_cfg(self, tmp_path, test_labels):
        return {"mode": "centralized", "seed": 1, "out_dir": str(tmp_path / "out"),
                "model": {"kind": "mlp", "hidden": 8},
                "dataset": {"kind": "csv",
                            "train": self.csv_clusters(tmp_path / "train.csv", (3, 7, 9), 40, 5),
                            "test": self.csv_clusters(tmp_path / "test.csv", test_labels, 10, 6)},
                "hyper": {"eta1": 0.3, "eta2": 0.0, "steps": 200}}

    def test_csv_test_labels_take_the_train_ids(self, tmp_path, capsys):
        # a test file without label 7 once scored its label 9 as train's 7 (accuracy 0.5)
        cfg = write_cfg(tmp_path, "c.json", self.csv_cfg(tmp_path, (3, 9)))
        assert main(["run", "--config", cfg]) == 0
        assert float(read_summary(str(tmp_path / "out"))[0]["acc_quantized"]) == 1.0

    def test_csv_test_label_missing_from_train_exits_2(self, tmp_path, capsys):
        cfg_dict = self.csv_cfg(tmp_path, (3, 9))
        text = (tmp_path / "test.csv").read_text()
        (tmp_path / "test.csv").write_text(text.replace(",9\n", ",8\n"))
        assert main(["run", "--config", write_cfg(tmp_path, "c.json", cfg_dict)]) == 2
        err = capsys.readouterr().err
        assert err == "error: invalid config: dataset.test: label 8 does not occur in " \
                      "dataset.train\n"
        assert not (tmp_path / "out").exists()

    def test_csv_test_feature_count_must_match_train(self, tmp_path, capsys):
        # a 1-feature test file once trained, then ended in a matmul traceback and exit 1
        cfg_dict = self.csv_cfg(tmp_path, (3, 9))
        (tmp_path / "test.csv").write_text("f0,label\n-2.0,3\n2.0,9\n")
        assert main(["run", "--config", write_cfg(tmp_path, "c.json", cfg_dict)]) == 2
        err = capsys.readouterr().err
        assert err == "error: invalid config: dataset.test: expected 2 feature columns as in " \
                      "dataset.train, got 1\n"
        assert not (tmp_path / "out").exists()

    def test_csv_test_must_hold_a_sample_of_each_clients_labels(self, tmp_path, capsys):
        # a client scored on an empty test set once ended in a traceback and exit 1
        cfg_dict = federated_cfg("local", str(tmp_path / "out"))
        cfg_dict["dataset"] = self.csv_cfg(tmp_path, (3, 7))["dataset"]
        cfg_dict["partition"] = {"clients": 3, "classes_per_client": 1, "seed": 0}
        assert main(["run", "--config", write_cfg(tmp_path, "c.json", cfg_dict)]) == 2
        err = capsys.readouterr().err
        assert err == "error: invalid config: dataset.test: no sample of client 0's labels [9]\n"
        assert not (tmp_path / "out").exists()

    def test_csv_test_coverage_names_the_first_uncovered_client(self, tmp_path, capsys):
        # partition seed 13 gives clients 0, 1, 2 the labels 3, 7, 9; the test file holds only 3
        cfg_dict = federated_cfg("local", str(tmp_path / "out"))
        cfg_dict["dataset"] = self.csv_cfg(tmp_path, (3,))["dataset"]
        cfg_dict["partition"] = {"clients": 3, "classes_per_client": 1, "seed": 13}
        assert main(["run", "--config", write_cfg(tmp_path, "c.json", cfg_dict)]) == 2
        err = capsys.readouterr().err
        assert err == "error: invalid config: dataset.test: no sample of client 1's labels [7]\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["train", "test"])
    def test_csv_path_must_be_a_string(self, tmp_path, capsys, field):
        cfg_dict = self.csv_cfg(tmp_path, (3, 9))
        cfg_dict["dataset"][field] = [cfg_dict["dataset"][field]]
        assert main(["run", "--config", write_cfg(tmp_path, "c.json", cfg_dict)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: invalid config: dataset.{field}: expected string, got [")
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

    def test_seed_in_environment_exits_2(self, tmp_path, capsys, monkeypatch):
        # the seed once came from QUPEL_SEED, so the manifest's config did not reproduce the run
        monkeypatch.setenv("QUPEL_SEED", "99")
        cfg = write_cfg(tmp_path, "c.json", federated_cfg("local", str(tmp_path / "out")))
        assert main(["run", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: invalid config: QUPEL_SEED: ")
        assert not (tmp_path / "out").exists()

    def test_fedavg_runs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "f.json", federated_cfg("fedavg", str(tmp_path / "f")))
        assert main(["run", "--config", cfg]) == 0
        rows = read_summary(str(tmp_path / "f"))
        assert all(r["bits"] == "32" for r in rows)

    def test_fedavg_labels_its_accuracy_full_precision(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("QUPEL_SEED", raising=False)
        out = str(tmp_path / "out")
        assert main(["run", "--config", str(CONFIG_DIR / "fedavg.json"), "--out", out]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "mode=fedavg clients=10 bits=[32, 32, 32, 32, 32, 32, 32, 32, ...]",
            "avg full-precision test accuracy: 0.7094", f"outputs in {out}"]

    @pytest.mark.parametrize("eta1", [1e300, 1e100], ids=["overflow", "past-threshold"])
    def test_fedavg_divergence_exits_3_with_one_line(self, tmp_path, capsys, eta1):
        cfg_dict = json.loads((CONFIG_DIR / "fedavg.json").read_text())
        cfg_dict["hyper"].update(eta1=eta1, steps=60)
        cfg_dict["out_dir"] = str(tmp_path / "out")
        assert main(["run", "--config", write_cfg(tmp_path, "f.json", cfg_dict)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: fedavg objective diverged at step 0: total=")
        assert err.count("\n") == 1
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "manifest.json", "partition.json"]

    def test_centralized_checkpoint_hash_matches_manifest(self, tmp_path, capsys):
        cfg_dict = json.loads((CONFIG_DIR / "centralized_quadratic.json").read_text())
        cfg_dict["hyper"].update(checkpoint_every=100)
        cfg_dict["out_dir"] = str(tmp_path / "out")
        assert main(["run", "--config", write_cfg(tmp_path, "c.json", cfg_dict)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        checkpoint = json.loads((tmp_path / "out" / "checkpoint.json").read_text())
        assert checkpoint["hyperparams_hash"] == manifest["hyperparams_hash"]

    def test_run_requires_dataset_kind(self, tmp_path, capsys):
        cfg_dict = federated_cfg("qupel", str(tmp_path / "out"), steps=2)
        del cfg_dict["dataset"]["kind"]
        assert main(["run", "--config", write_cfg(tmp_path, "q.json", cfg_dict)]) == 2
        assert "invalid config: dataset.kind: missing required field" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["centralized", "local", "qupel", "fedavg"])
    def test_metrics_record_layout(self, tmp_path, capsys, mode):
        out = str(tmp_path / "out")
        cfg = centralized_mlp_cfg(out) if mode == "centralized" else \
            federated_cfg(mode, out, steps=6)
        assert main(["run", "--config", write_cfg(tmp_path, "c.json", cfg)]) == 0
        with open(out + "/metrics.jsonl") as fh:
            records = [json.loads(line) for line in fh]
        client = [] if mode == "centralized" else ["client_id"]  # no client column
        keys = ["step", *client, "f_x", "f_q", "reg", "prox_penalty", "F_total",
                "stationarity_gap", "w_drift", "quant_error", "test_acc", "kappa_round"]
        assert records and all(list(rec) == keys for rec in records)
        if mode == "fedavg":  # the one global model
            assert {rec["client_id"] for rec in records} == {-1}

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

    @pytest.mark.parametrize("flags", [
        ["--instances=0"], ["--instances=-3"], ["--instances=2.5"], ["--tol=0"],
        ["--tol=-1e-5"], ["--tol=nan"], ["--tol=inf"], ["--inject-fault", "--tol=inf"]])
    def test_vacuous_setting_exits_2(self, capsys, flags):
        # 0 or -3 instances, or tol=inf beside an injected fault, once printed ok and exited 0
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flags[-1].split('=')[0]}: invalid" in err and "Traceback" not in err


@pytest.mark.parametrize("level", ["debug", "Info", "WARNING", "error", "critical"])
def test_log_level_takes_any_case(capsys, level):
    assert main(["--log-level", level, "gradcheck", "--instances", "2"]) == 0


@pytest.mark.parametrize("level", ["foo", "warn", "BASIC_FORMAT", "notset", ""])
def test_unknown_log_level_exits_2(capsys, level):
    # foo once ran silently at WARNING, and BASIC_FORMAT ended in a ValueError traceback
    with pytest.raises(SystemExit) as exc:
        main(["--log-level", level, "gradcheck", "--instances", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --log-level: invalid choice" in err and "Traceback" not in err


class TestCompareCommand:
    def test_empty_modes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "cmp.json", {"modes": [],
                                               "dataset": {}, "partition": {}})
        assert main(["compare", "--config", cfg]) == 2

    def test_dataset_kind_defaults_to_blobs(self, tmp_path, capsys):
        tables = []
        for name, kind in (("blobs", "blobs"), ("absent", None)):
            cfg_dict = compare_cfg(str(tmp_path / name))
            cfg_dict["dataset"]["kind"] = kind
            assert main(["compare", "--config", write_cfg(tmp_path, f"{name}.json", cfg_dict)]) == 0
            tables.append((tmp_path / name / "comparison.csv").read_bytes())
        assert tables[0] == tables[1]

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


@pytest.mark.parametrize("command", ["run", "compare"])
def test_unusable_out_dir_exits_2_before_training(tmp_path, capsys, monkeypatch, command):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the output directory was made")

    monkeypatch.setattr(cli, "run_mode", no_training)
    (tmp_path / "file").write_text("")
    make_cfg = compare_cfg if command == "compare" else \
        (lambda out: federated_cfg("qupel", out, steps=3))
    cfg = write_cfg(tmp_path, "c.json", make_cfg(str(tmp_path / "out")))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "file" / "sub")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: out_dir: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_diverged_compare_leaves_an_empty_directory(tmp_path, capsys):
    cfg_dict = compare_cfg(str(tmp_path / "out"))
    cfg_dict["hyper"]["eta1"] = 1e100
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "comparison.csv").write_text("stale\n")
    assert main(["compare", "--config", write_cfg(tmp_path, "c.json", cfg_dict)]) == 3
    assert list((tmp_path / "out").iterdir()) == []


def compare_cfg(out_dir):
    base = federated_cfg("qupel", out_dir, lambda_p=0.4, steps=5)
    return {"modes": ["qupel", "local"], "seeds": [1], "out_dir": out_dir,
            **{k: base[k] for k in ("model", "dataset", "partition", "quantization", "hyper")}}


def logistic_cfg(out_dir):
    cfg = federated_cfg("qupel", out_dir, steps=5)
    cfg["model"] = {"kind": "logistic"}
    cfg["dataset"]["classes"] = 2
    return cfg


BASES = {  # base config name -> (command, config builder)
    "compare": ("compare", compare_cfg),
    "run": ("run", lambda out: federated_cfg("qupel", out, steps=5)),
    "local": ("run", lambda out: federated_cfg("local", out, steps=5)),
    "fedavg": ("run", lambda out: federated_cfg("fedavg", out, steps=5)),
    "logistic": ("run", logistic_cfg),
    "centralized": ("run", centralized_mlp_cfg),
    "quadratic": ("run", lambda out: quadratic_cfg(out, steps=5)),
}


def compare_local_alone(cfg):
    cfg["modes"] = ["local"]
    for key in ("eta3", "lambda_p"):
        del cfg["hyper"][key]


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
    ("quadratic", lambda c: c["hyper"].update({"eta2": 1e300,
                                               "lambda": {"kind": "constant", "value": 1e10}}),
     "hyper"),
    ("quadratic", lambda c: c["hyper"].update({"lambda": {"kind": "linear", "base": 1e308},
                                              "divergence_factor": 1e308}), "hyper"),
    ("run", lambda c: c["hyper"].update(lamda_p=1.0), "hyper.lamda_p"),
    ("run", lambda c: c["model"].update(targets=[0.1, 0.9]), "model.targets"),
    ("centralized", lambda c: c.update(partition={"clients": 3}), "partition.clients"),
    ("compare", lambda c: c.update(num_seeds=3), "num_seeds"),
    ("compare", lambda c: c.update(seed=1), "seed"),
    ("run", lambda c: c["hyper"].update({"lambda": {"kind": "linear", "base": 1e-3, "value": 0.1}}),
     "hyper.lambda.value"),
    ("run", lambda c: c.update(quantization={"m_list": [4, 4, 4], "case": "2bits"}),
     "quantization.case"),
    ("run", lambda c: c.update(out_dir=True), "out_dir"),
    ("compare", lambda c: c.update(out_dir=True), "out_dir"),
    ("centralized", lambda c: c.update(out_dir=["out"]), "out_dir"),
    # a key that the mode does not use is refused, not ignored
    ("local", lambda c: c["hyper"].update(tau=5), "hyper.tau"),
    ("local", lambda c: c["hyper"].update(lambda_p=1.0), "hyper.lambda_p"),
    ("centralized", lambda c: c["hyper"].update(lambda_p=0.5), "hyper.lambda_p"),
    ("quadratic", lambda c: c["model"].update(hidden=99), "model.hidden"),
    ("quadratic", lambda c: c["model"].update(l2=5.0), "model.l2"),
    ("quadratic", lambda c: c["quantization"].update(exempt_first_last=True),
     "quantization.exempt_first_last"),
    ("logistic", lambda c: c["model"].update(hidden=6), "model.hidden"),
    ("fedavg", lambda c: c["hyper"].update(eta2=0.0), "hyper.eta2"),
    ("fedavg", lambda c: c["hyper"].update({"lambda": 0.05}), "hyper.lambda"),
    ("fedavg", lambda c: c.update(quantization={"m": 4}), "quantization.m"),
    ("compare", compare_local_alone, "hyper.tau"),
    ("compare", lambda c: c.update(modes=["local", "local"]), "modes"),
    ("run", lambda c: c["hyper"].update({"lambda": {"kind": "piecewise"}}), "hyper.lambda.kind"),
    ("run", lambda c: c["hyper"].update(flip_w_update_sign=True), "hyper.flip_w_update_sign"),
    ("run", lambda c: c["hyper"].update({"lambda": 0.05}), "hyper.lambda"),
    # the hard quantizer ignores sharpness, so a hard run refuses it
    ("run", lambda c: c["quantization"].update(sharpness=3.0), "quantization.sharpness"),
    ("run", lambda c: c["quantization"].update(hard_limit=False, sharpness="sharp"),
     "quantization.sharpness"),
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
        "eta2-decay-negative", "eta2-nan", "lambda-p-nan",
        "seed-negative", "compare-seed-negative", "per-class-4", "compare-per-class-4",
        "centralized-per-class-4", "spread-zero", "divergence-factor-negative",
        "checkpoint-every-zero", "checkpoint-every-negative", "checkpoint-every-qupel",
        "compare-checkpoint-every", "compare-seeds-repeated", "eta2-decay-unsorted",
        "eta2-decay-repeated", "lambda-eta2-overflow", "lambda-ramp-overflow",
        "misspelt-lambda-p", "qupel-model-targets", "centralized-partition",
        "compare-num-seeds", "compare-seed", "lambda-value-beside-linear", "case-beside-m-list",
        "out-dir-bool", "compare-out-dir-bool", "centralized-out-dir-list", "local-tau",
        "local-lambda-p", "centralized-lambda-p", "quadratic-hidden", "quadratic-l2",
        "quadratic-exempt", "logistic-hidden", "fedavg-eta2", "fedavg-lambda", "fedavg-m",
        "compare-local-tau", "compare-modes-repeated", "lambda-piecewise", "flip-sign",
        "lambda-number", "sharpness-in-hard-mode", "soft-sharpness-string"]


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


def test_every_hyperparams_field_has_a_config_source():
    built = {"lambda_schedule", "quant_cfg"}  # made by build_hyper from their own keys
    assert {f.name for f in dataclasses.fields(cli.HyperParams)} == set(cli._HYPER_FIELDS) | built


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_is_valid(path, monkeypatch):
    monkeypatch.delenv("QUPEL_SEED", raising=False)
    cfg = json.loads(path.read_text())
    if "modes" in cfg:
        cli.read_compare_config(cfg)
    else:
        cli.read_run_config(cfg)


@pytest.mark.parametrize("edit, field", [(e, f) for c, e, f in INVALID_CONFIGS if c == "compare"],
                         ids=[i for (c, _, _), i in zip(INVALID_CONFIGS, INVALID_IDS)
                              if c == "compare"])
def test_compare_checker_refuses_every_invalid_compare_config(tmp_path, edit, field):
    cfg_dict = compare_cfg(str(tmp_path / "out"))
    cfg_dict["seeds"] = [1, 2]
    edit(cfg_dict)
    with pytest.raises(cli.ConfigError) as err:
        cli.read_compare_config(cfg_dict)
    assert err.value.field == field
    assert not (tmp_path / "out").exists()


def test_compare_seeds_default_to_1_2_3(tmp_path):
    cfg_dict = compare_cfg(str(tmp_path / "out"))
    del cfg_dict["seeds"]
    populations = cli.read_compare_config(cfg_dict)[3]
    assert [seed for seed, _ in populations] == [1, 2, 3]


def test_run_and_compare_agree(tmp_path, capsys):
    cfg_dict = compare_cfg(str(tmp_path / "cmp"))
    cfg_dict["modes"] = ["qupel", "local", "fedavg"]
    cfg_dict["hyper"].update(steps=20, fine_tune_start=16)
    assert main(["compare", "--config", write_cfg(tmp_path, "cmp.json", cfg_dict)]) == 0
    with open(tmp_path / "cmp" / "comparison.csv") as fh:
        compared = {r["mode"]: r["avg_test_acc"] for r in csv.DictReader(fh)}
    unused = {"qupel": (), "local": ("tau", "eta3", "lambda_p"),  # run refuses these keys
              "fedavg": ("eta2", "lambda", "fine_tune_start", "eta3", "lambda_p")}
    for mode in cfg_dict["modes"]:
        run_dict = {k: v for k, v in cfg_dict.items() if k not in ("modes", "seeds")}
        run_dict.update(mode=mode, seed=cfg_dict["seeds"][0], out_dir=str(tmp_path / mode),
                        hyper={k: v for k, v in cfg_dict["hyper"].items()
                               if k not in unused[mode]})
        if mode == "fedavg":
            del run_dict["quantization"]
        assert main(["run", "--config", write_cfg(tmp_path, f"{mode}.json", run_dict)]) == 0
        accs = [float(r["acc_quantized"]) for r in read_summary(str(tmp_path / mode))]
        assert f"{float(np.mean(accs)):.17g}" == compared[mode], mode


def test_fedavg_alone_compares_as_beside_the_other_modes(tmp_path, capsys):
    # fedavg alone reads no center keys, so its clients get one center per group
    full = compare_cfg(str(tmp_path / "full"))
    full.update(modes=["qupel", "local", "fedavg"], seeds=[1, 2])
    alone = {k: v for k, v in full.items() if k != "quantization"}
    alone.update(modes=["fedavg"], out_dir=str(tmp_path / "alone"),
                 hyper={k: full["hyper"][k] for k in ("eta1", "steps", "tau", "metrics_every")})
    tables = []
    for name, cfg_dict in (("full", full), ("alone", alone)):
        assert main(["compare", "--config", write_cfg(tmp_path, f"{name}.json", cfg_dict)]) == 0
        with open(tmp_path / name / "comparison.csv") as fh:
            tables.append([r for r in csv.DictReader(fh) if r["mode"] == "fedavg"])
    assert len(tables[1]) == 2 and tables[0] == tables[1]


def test_partition_drawn_once_per_run_and_per_compare_seed(tmp_path, capsys, monkeypatch):
    seeds, built = [], []  # every mode of a compare seed runs on that seed's one population

    def counting(ds, n_clients, k, seed):
        seeds.append(seed)
        return partition_noniid(ds, n_clients, k, seed)

    def counting_build(task, partition, seed, **spec):
        built.append(seed)
        return build_clients(task, partition, seed=seed, **spec)

    monkeypatch.setattr(cli, "partition_noniid", counting)
    monkeypatch.setattr(cli, "build_clients", counting_build)
    run_dict = federated_cfg("qupel", str(tmp_path / "run"), steps=2)
    assert main(["run", "--config", write_cfg(tmp_path, "run.json", run_dict)]) == 0
    assert seeds == built == [3]
    cmp_dict = compare_cfg(str(tmp_path / "cmp"))
    cmp_dict.update(modes=["qupel", "local", "fedavg"], seeds=[1, 2])
    assert main(["compare", "--config", write_cfg(tmp_path, "cmp.json", cmp_dict)]) == 0
    assert seeds == built == [3, 1, 2]


def test_zero_step_run_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma costs 15-20 ms of every run's set-up; np.quantile's np.unique imported it
    cfg = json.loads((CONFIG_DIR / "qupel.json").read_text())
    cfg["hyper"].update(steps=0, fine_tune_start=0)
    (tmp_path / "zero.json").write_text(json.dumps(cfg))
    script = ("import sys; from qupel.cli import main; "
              f"code = main(['run', '--config', {str(tmp_path / 'zero.json')!r}, "
              f"'--out', {str(tmp_path / 'out')!r}]); print(code, 'numpy.ma' in sys.modules)")
    env = {k: v for k, v in os.environ.items() if k != "QUPEL_SEED"}
    env["PYTHONPATH"] = str(CONFIG_DIR.parent / "src")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "0 False"
