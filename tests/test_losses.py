import math

import numpy as np
import pytest

from qupel.losses import (
    LogisticLoss,
    MlpLoss,
    QuadraticLoss,
    QuantLayout,
    eval_F_i_grouped,
    hard_quantize_grouped,
    loss_quant_gradient_c,
    loss_quant_gradient_x,
    quantize_grouped,
)
from qupel import losses, quantizer
from qupel.proxops import regularizer
from qupel.quantizer import CenterVector, QuantConfig, hard_grad_c, quantize_assignments
from qupel.diagnostics import finite_diff_check
from qupel.rng import Rng

from helpers import centers


class TestQuadratic:
    def test_minimum(self):
        loss = QuadraticLoss([1.0, -2.0], [1.0, 3.0])
        x = np.array([1.0, -2.0])
        assert loss.value(x) == 0.0
        assert np.array_equal(loss.gradient(x), [0.0, 0.0])

    def test_hand_value(self):
        loss = QuadraticLoss([1.0], [1.0])
        assert loss.value(np.array([0.5])) == pytest.approx(0.125, abs=0)
        assert loss.gradient(np.array([0.5]))[0] == pytest.approx(-0.5, abs=0)

    def test_rejects_bad_curvature(self):
        with pytest.raises(ValueError):
            QuadraticLoss([0.0], [0.0])

    def test_gradient_matches_fd(self):
        rng = Rng(2)
        loss = QuadraticLoss(rng.uniform(-1, 1, 6), rng.uniform(0.5, 3, 6))
        rep = finite_diff_check(loss.value, loss.gradient, rng.uniform(-2, 2, 6), tol=1e-8)
        assert rep.passed


class TestLogistic:
    def make(self, rng, n=12, d=4, l2=0.05):
        z = rng.normal(n * d).reshape(n, d)
        y = np.where(rng.uniform(0, 1, n) < 0.5, -1.0, 1.0)
        return LogisticLoss(z, y, l2=l2)

    def test_value_at_zero(self):
        loss = self.make(Rng(3))
        assert loss.value(np.zeros(4)) == pytest.approx(math.log(2), abs=1e-12)

    def test_gradient_at_zero(self):
        loss = self.make(Rng(3), l2=0.0)
        want = -(loss.features * loss.labels[:, None]).mean(axis=0) / 2
        np.testing.assert_allclose(loss.gradient(np.zeros(4)), want, atol=1e-12)

    def test_gradient_matches_fd(self):
        rng = Rng(5)
        loss = self.make(rng)
        rep = finite_diff_check(loss.value, loss.gradient, rng.uniform(-1, 1, 4), tol=1e-6)
        assert rep.passed

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            LogisticLoss(np.zeros((0, 3)), np.zeros(0))

    def test_predict_in_class_label_space(self):
        rng = Rng(6)
        loss = LogisticLoss(rng.normal(8).reshape(4, 2),
                            np.array([-1.0, 1.0, 1.0, -1.0]), class_labels=(0, 1))
        pred = loss.predict(np.array([1.0, 0.0]), np.array([[2.0, 0.0], [-2.0, 0.0]]))
        assert set(pred) <= {0, 1}


class TestMlp:
    def make(self, rng, n=20, d=3, hidden=4, classes=2):
        z = rng.normal(n * d).reshape(n, d)
        y = np.array([i % classes for i in range(n)], dtype=np.int64)
        return MlpLoss([d, hidden, classes], z, y)

    def test_zero_weights_uniform_logits(self):
        loss = self.make(Rng(7))
        assert loss.value(np.zeros(loss.dim)) == pytest.approx(math.log(2), abs=1e-12)

    def test_gradient_matches_fd(self):
        rng = Rng(8)
        loss = MlpLoss([2, 4, 2], rng.normal(16).reshape(8, 2),
                       np.array([0, 1] * 4, dtype=np.int64))
        x = rng.uniform(-0.8, 0.8, loss.dim)
        rep = finite_diff_check(loss.value, loss.gradient, x, tol=1e-4)
        assert rep.passed

    def test_hidden_unit_permutation_invariance(self):
        rng = Rng(9)
        loss = self.make(rng, d=3, hidden=4, classes=2)
        x = rng.uniform(-1, 1, loss.dim)
        w1 = x[:12].reshape(3, 4)
        b1 = x[12:16]
        w2 = x[16:24].reshape(4, 2)
        b2 = x[24:]
        perm = [2, 0, 3, 1]
        x_perm = np.concatenate([w1[:, perm].ravel(), b1[perm], w2[perm, :].ravel(), b2])
        assert loss.value(x_perm) == pytest.approx(loss.value(x), abs=1e-12)

    def test_weight_ranges_cover_matrices(self):
        loss = self.make(Rng(10), d=3, hidden=4, classes=2)
        assert loss.weight_ranges() == [(0, 12), (16, 24)]

    def test_shape_mismatch(self):
        loss = self.make(Rng(11))
        with pytest.raises(ValueError):
            loss.value(np.zeros(loss.dim + 1))

    @pytest.mark.parametrize("sizes", [[8], [8, 10], [8, 12, 12, 10]])
    def test_refuses_any_depth_but_one_hidden_layer(self, sizes):
        z = Rng(12).normal(40).reshape(5, 8)
        with pytest.raises(ValueError, match="one hidden layer"):
            MlpLoss(sizes, z, np.zeros(5, dtype=np.int64))


_SHAPES = "^targets and curvature must be 1-d vectors of equal length$"
_PM_LABELS = r"^labels must be a vector of \+-1 matching the feature rows$"
_INT_LABELS = r"^labels must be ints in \[0, n_classes\)$"


@pytest.mark.parametrize("make, message", [
    (lambda: QuadraticLoss([0.0, 1.0], [1.0]), _SHAPES),
    (lambda: QuadraticLoss([[0.0]], [[1.0]]), _SHAPES),
    (lambda: LogisticLoss(np.zeros(3), np.ones(3)), "^empty dataset$"),
    (lambda: LogisticLoss(np.zeros((3, 2)), np.ones(2)), _PM_LABELS),
    (lambda: LogisticLoss(np.zeros((3, 2)), np.array([0.0, 1.0, 1.0])), _PM_LABELS),
    (lambda: LogisticLoss(np.zeros((3, 2)), np.ones(3), l2=-0.1), "^l2 must be nonnegative$"),
    (lambda: MlpLoss([2, 3, 2], np.zeros((0, 2)), np.zeros(0, dtype=np.int64)),
     "^empty dataset$"),
    (lambda: MlpLoss([2, 3, 2], np.zeros((4, 3)), np.zeros(4, dtype=np.int64)),
     "^feature dimension does not match the input layer$"),
    (lambda: MlpLoss([2, 3, 2], np.zeros((4, 2)), np.zeros(3, dtype=np.int64)), _INT_LABELS),
    (lambda: MlpLoss([2, 3, 2], np.zeros((4, 2)), np.array([0, 1, 2, 0])), _INT_LABELS),
    (lambda: MlpLoss([2, 3, 2], np.zeros((4, 2)), np.array([0, -1, 1, 0])), _INT_LABELS),
    (lambda: MlpLoss([2, 3, 2], np.zeros((4, 2)), np.zeros(4, dtype=np.int64), l2=-1.0),
     "^l2 must be nonnegative$"),
], ids=["quadratic-lengths", "quadratic-2d", "logistic-1d-features", "logistic-label-count",
        "logistic-label-values", "logistic-l2", "mlp-empty", "mlp-feature-dim",
        "mlp-label-count", "mlp-label-above", "mlp-label-below", "mlp-l2"])
def test_loss_constructors_refuse(make, message):
    with pytest.raises(ValueError, match=message):
        make()


class TestComposedObjectives:
    def test_hard_mode_on_centers(self):
        loss = QuadraticLoss([0.0, 1.0], [1.0, 1.0])
        x = np.array([0.0, 1.0])
        ev = eval_F_i_grouped(loss, x, [centers(0.0, 1.0)], QuantLayout.full(2), x,
                              QuantConfig(hard_limit=True), lam=0.0, lambda_p=0.0)
        assert ev.total == 2 * ev.f_x == 0.0

    def test_hand_example(self):
        loss = QuadraticLoss([1.0], [1.0])
        x = np.array([0.6])
        ev = eval_F_i_grouped(loss, x, [centers(0.0, 1.0)], QuantLayout.full(1), x,
                              QuantConfig(hard_limit=True), lam=0.1, lambda_p=0.0)
        assert ev.f_x == pytest.approx(0.08, abs=1e-15)
        assert ev.f_q == 0.0
        assert ev.reg == pytest.approx(0.02, abs=1e-15)
        assert ev.total == pytest.approx(0.10, abs=1e-15)

    def test_total_is_ordered_sum(self):
        rng = Rng(13)
        loss = QuadraticLoss(rng.uniform(-1, 1, 5), rng.uniform(0.5, 2, 5))
        x = rng.uniform(-1, 1, 5)
        ev = eval_F_i_grouped(loss, x, [centers(-0.5, 0.5)], QuantLayout.full(5), x,
                              QuantConfig(sharpness=4.0), lam=0.3, lambda_p=0.0)
        assert ev.total == ev.f_x + ev.f_q + ev.reg + ev.prox_penalty
        assert ev.total >= ev.f_x

    def test_F_i_penalty(self):
        loss = QuadraticLoss([1.0], [1.0])
        ev = eval_F_i_grouped(loss, np.array([0.6]), [centers(0.0, 1.0)], QuantLayout.full(1),
                              np.array([0.8]), QuantConfig(hard_limit=True), lam=0.1, lambda_p=0.5)
        assert ev.prox_penalty == pytest.approx(0.01, abs=1e-15)
        assert ev.total == pytest.approx(0.11, abs=1e-15)

    def test_F_i_zero_penalty_when_models_agree(self):
        loss = QuadraticLoss([1.0], [1.0])
        x = np.array([0.3])
        ev = eval_F_i_grouped(loss, x, [centers(0.0, 1.0)], QuantLayout.full(1), x,
                              QuantConfig(hard_limit=True), 0.1, 2.0)
        assert ev.prox_penalty == 0.0

    def test_F_i_dimension_mismatch(self):
        loss = QuadraticLoss([1.0], [1.0])
        with pytest.raises(ValueError):
            eval_F_i_grouped(loss, np.array([0.5]), [centers(0.0)], QuantLayout.full(1),
                             np.array([0.5, 0.5]), QuantConfig(hard_limit=True), 0.0, 1.0)

    def test_penalty_gradient_wrt_w(self):
        rng = Rng(14)
        loss = QuadraticLoss(rng.uniform(-1, 1, 4), rng.uniform(0.5, 2, 4))
        x = rng.uniform(-1, 1, 4)
        c = [centers(-0.5, 0.5)]
        lam_p = 0.7

        def pen(w):
            return eval_F_i_grouped(loss, x, c, QuantLayout.full(4), w,
                                    QuantConfig(hard_limit=True), 0.0, lam_p).prox_penalty

        rep = finite_diff_check(pen, lambda w: lam_p * (w - x), rng.uniform(-1, 1, 4), tol=1e-8)
        assert rep.passed


class TestChainRuleGradients:
    def test_grad_x_through_quantizer_fd(self):
        rng = Rng(15)
        loss = QuadraticLoss(rng.uniform(-1, 1, 6), rng.uniform(0.5, 2, 6))
        layout = QuantLayout.full(6)
        cs = [centers(-0.8, 0.1, 0.9)]
        cfg = QuantConfig(sharpness=5.0)
        x = rng.uniform(-1.5, 1.5, 6)
        rep = finite_diff_check(
            lambda p: loss.value(quantize_grouped(p, cs, layout, cfg)),
            lambda p: loss_quant_gradient_x(loss, p, cs, layout, cfg),
            x, tol=1e-5,
        )
        assert rep.passed

    def test_grad_c_through_quantizer_fd(self):
        rng = Rng(16)
        loss = QuadraticLoss(rng.uniform(-1, 1, 6), rng.uniform(0.5, 2, 6))
        layout = QuantLayout.full(6)
        base = centers(-0.8, 0.1, 0.9)
        cfg = QuantConfig(sharpness=5.0)
        x = rng.uniform(-1.5, 1.5, 6)

        def fn(cv):
            return loss.value(quantize_grouped(x, [CenterVector(np.sort(cv))], layout, cfg))

        def gfn(cv):
            return loss_quant_gradient_c(loss, x, [CenterVector(np.sort(cv))], layout, cfg)[0]

        rep = finite_diff_check(fn, gfn, base.values.copy(), tol=1e-5)
        assert rep.passed

    def test_hard_mode_grad_x_zero_on_quantized(self):
        loss = QuadraticLoss([0.5, 0.5], [1.0, 1.0])
        layout = QuantLayout(2, ((0, 1),))  # second coordinate exempt
        cs = [centers(0.0, 1.0)]
        cfg = QuantConfig(hard_limit=True)
        g = loss_quant_gradient_x(loss, np.array([0.2, 0.3]), cs, layout, cfg)
        assert g[0] == 0.0
        assert g[1] != 0.0  # exempt coordinate passes the loss gradient through

    def test_exempt_coordinates_identity(self):
        rng = Rng(17)
        loss = QuadraticLoss(rng.uniform(-1, 1, 4), rng.uniform(0.5, 2, 4))
        layout = QuantLayout(4, ((0, 2),))
        cs = [centers(-0.5, 0.5)]
        cfg = QuantConfig(sharpness=3.0)
        x = rng.uniform(-1, 1, 4)
        q = quantize_grouped(x, cs, layout, cfg)
        assert np.array_equal(q[2:], x[2:])

    def test_grouped_layout_validation(self):
        with pytest.raises(ValueError):
            QuantLayout(4, ((0, 3), (2, 4)))
        with pytest.raises(ValueError):
            QuantLayout(4, ((0, 5),))
        with pytest.raises(ValueError):
            eval_F_i_grouped(QuadraticLoss([0.0], [1.0]), np.array([0.0]), [],
                             QuantLayout.full(1), np.array([0.0]), QuantConfig(hard_limit=True),
                             0.0, 0.0)


class TestObjectiveEvaluator:
    """Each part of eval_F_i_grouped equals its reference definition bitwise."""

    CFGS = [QuantConfig(hard_limit=True), QuantConfig(sharpness=6.0)]

    def make(self):
        rng = Rng(18)
        loss = MlpLoss([3, 4, 2], rng.normal(30).reshape(10, 3),
                       np.array([0, 1] * 5, dtype=np.int64))
        layout = QuantLayout.for_mlp(loss)  # two weight groups; the biases are exempt
        x = rng.uniform(-1, 1, loss.dim)
        w = rng.uniform(-1, 1, loss.dim)
        return loss, layout, x, [centers(-0.6, 0.0, 0.5), centers(-0.3, 0.4)], w

    @pytest.mark.parametrize("cfg", CFGS, ids=["hard", "soft"])
    def test_parts_match_references(self, cfg):
        loss, layout, x, cs, w = self.make()
        lam, lam_p = 0.3, 0.7
        ev = eval_F_i_grouped(loss, x, cs, layout, w, cfg, lam, lam_p)
        r = 0.0
        for (start, stop), c in zip(layout.groups, cs):
            r += regularizer(x[start:stop], c)
        assert ev.f_x == loss.value(x)
        assert ev.f_q == loss.value(quantize_grouped(x, cs, layout, cfg))
        assert ev.reg == lam * r
        assert ev.quant_error == float(np.sum(np.abs(x - hard_quantize_grouped(x, cs, layout))))
        assert ev.prox_penalty == 0.5 * lam_p * float(np.sum((x - w) ** 2))
        assert ev.total == ev.f_x + ev.f_q + ev.reg + ev.prox_penalty

    @pytest.mark.parametrize("cfg", CFGS, ids=["hard", "soft"])
    def test_quantizes_each_group_once(self, cfg, monkeypatch):
        loss, layout, x, cs, w = self.make()
        calls = []

        def counted(xg, c):
            calls.append(xg.size)
            return quantize_assignments(xg, c)

        monkeypatch.setattr(quantizer, "quantize_assignments", counted)
        monkeypatch.setattr(losses, "quantize_assignments", counted)
        eval_F_i_grouped(loss, x, cs, layout, w, cfg, 0.3, 0.7)
        assert calls == [stop - start for start, stop in layout.groups]

    def test_hard_center_gradient_matches_reference(self):
        loss, layout, x, cs, _ = self.make()
        cfg = QuantConfig(hard_limit=True)
        got = loss_quant_gradient_c(loss, x, cs, layout, cfg)
        gy = loss.gradient(quantize_grouped(x, cs, layout, cfg))
        assert len(got) == len(cs)
        for (start, stop), c, g in zip(layout.groups, cs, got):
            want = hard_grad_c(quantize_assignments(x[start:stop], c), gy[start:stop], c.m)
            assert np.array_equal(g, want)
