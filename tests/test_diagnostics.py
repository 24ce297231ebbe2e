import json

import numpy as np
import pytest

from qupel.data import make_blobs
from qupel.diagnostics import (
    evaluate_accuracy,
    export_metrics,
    finite_diff_check,
    prox_oracle_1d,
    run_gradient_suite,
    run_prox_suite,
)
from qupel.losses import LogisticLoss, QuadraticLoss
from qupel.quantizer import CenterVector
from qupel.rng import Rng


class TestFiniteDiffCheck:
    def test_quadratic_tight(self):
        rng = Rng(1)
        loss = QuadraticLoss(rng.uniform(-1, 1, 5), rng.uniform(0.5, 2, 5))
        rep = finite_diff_check(loss.value, loss.gradient, rng.uniform(-1, 1, 5), tol=1e-8)
        assert rep.passed and rep.max_rel_err < 1e-8

    def test_constant_function_zero_error(self):
        rep = finite_diff_check(lambda x: 3.0, lambda x: np.zeros_like(x), np.zeros(4))
        assert rep.max_rel_err == 0.0

    def test_detects_wrong_sign(self):
        loss = QuadraticLoss([0.0], [1.0])
        rep = finite_diff_check(loss.value, lambda x: -loss.gradient(x), np.array([1.0]))
        assert not rep.passed
        assert rep.worst_coord == 0

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda x: 0.0, lambda x: x, np.zeros(1), step=0.0)


class TestProxOracle:
    def test_zero_lambda_returns_y(self):
        c = CenterVector(np.array([-0.5, 0.5]))
        assert prox_oracle_1d(0.3, c, 0.0) == pytest.approx(0.3, abs=1e-4)

    def test_large_lambda_returns_nearest_center(self):
        c = CenterVector(np.array([-0.5, 0.5]))
        assert prox_oracle_1d(0.9, c, 50.0) == pytest.approx(0.5, abs=1e-4)


class TestEvaluateAccuracy:
    def test_perfect_separation(self):
        train, test = make_blobs(2, 3, 25, 1e-6, seed=2)
        y = np.where(train.labels == 1, 1.0, -1.0)
        loss = LogisticLoss(train.features, y, class_labels=(0, 1))
        x = np.zeros(3)
        for _ in range(400):
            x = x - 0.5 * loss.gradient(x)
        assert evaluate_accuracy(loss, x, test) == 1.0

    def test_random_labels_near_half(self):
        rng = Rng(77)
        n = 4000
        feats = rng.normal(2 * n).reshape(n, 2)
        labels = np.array([rng.randint(2) for _ in range(n)], dtype=np.int64)
        from qupel.data import Dataset

        test = Dataset(feats, labels)
        y_dummy = np.where(labels == 1, 1.0, -1.0)
        loss = LogisticLoss(feats, y_dummy, class_labels=(0, 1))
        acc = evaluate_accuracy(loss, np.array([1.0, 0.5]), test)
        # 3-sigma binomial band around 0.5
        assert abs(acc - 0.5) < 3 * 0.5 / np.sqrt(n)

    def test_empty_test_set(self):
        loss = LogisticLoss(np.ones((2, 1)), np.array([-1.0, 1.0]))
        from qupel.data import Dataset

        with pytest.raises(ValueError):
            ds = Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int))


class TestExportMetrics:
    def sample_history(self):
        return [
            {"step": 0, "f_x": 0.5, "f_q": 0.25, "reg": 0.1, "prox_penalty": 0.0,
             "F_total": 0.85, "stationarity_gap": 1e-3, "w_drift": 0.0,
             "quant_error": 0.2, "test_acc": None, "kappa_round": 0.0},
            {"step": 1, "f_x": 0.4, "f_q": 0.2, "reg": 0.1, "prox_penalty": 0.0,
             "F_total": 0.7, "stationarity_gap": 5e-4, "w_drift": 0.0,
             "quant_error": 0.1, "test_acc": 0.9, "kappa_round": None},
        ]

    def test_jsonl_round_trip_exact(self, tmp_path):
        path = tmp_path / "m.jsonl"
        hist = self.sample_history()
        export_metrics(hist, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert rec["F_total"] == 0.85
        assert rec["test_acc"] is None

    def test_second_write_replaces_the_first(self, tmp_path):
        path = tmp_path / "m.jsonl"
        export_metrics(self.sample_history(), path)
        once = path.read_bytes()
        export_metrics(self.sample_history(), path)
        assert path.read_bytes() == once
        assert len(once.decode().strip().split("\n")) == 2

    def test_empty_history_jsonl(self, tmp_path):
        path = tmp_path / "m.jsonl"
        export_metrics([], path)
        assert path.read_text() == ""

    def test_failed_write_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        export_metrics(self.sample_history(), path)
        before = path.read_bytes()
        records = self.sample_history() + [{"step": 2, "F_total": object()}]
        with pytest.raises(TypeError):  # json cannot encode the third record
            export_metrics(records, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.jsonl"]


class TestSuites:
    def test_gradient_suite_small(self):
        rep = run_gradient_suite(n_instances=60, tol=1e-5, seed=5)
        assert rep.passed, rep.detail

    def test_gradient_suite_detects_fault(self):
        rep = run_gradient_suite(n_instances=5, tol=1e-5, seed=5, broken=True)
        assert not rep.passed

    def test_prox_suite_small(self):
        rep = run_prox_suite(n_instances=60, seed=6)
        assert rep.passed, rep.detail
