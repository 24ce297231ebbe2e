import math
import tracemalloc

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
    objective_rows,
    quantize_grouped,
    stack_losses,
)
from qupel import losses
from qupel.proxops import regularizer
from qupel.quantizer import (
    CenterStack,
    CenterVector,
    QuantConfig,
    assign_rows,
    hard_grad_c,
    quantize_assignments,
    soft_quantize,
    soft_grad_c_rows,
    soft_grad_x_rows,
    soft_quantize_rows,
)
from qupel.diagnostics import finite_diff_check
from qupel.rng import Rng

from helpers import (
    centers,
    grad_soft_quantize_c_row,
    grad_soft_quantize_x_row,
    soft_quantize_row,
)


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


CLASS_COUNTS = [1, 2, 7, 8, 9, 10, 12, 15, 16, 17, 28, 128, 129]


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

    @staticmethod
    def reference(loss, x, features):
        """Hidden layer and logits by freshly allocated temporaries."""
        d, h, k = loss.sizes
        w1, b1 = x[:d * h].reshape(d, h), x[d * h:d * h + h]
        w2, b2 = x[d * h + h:d * h + h + h * k].reshape(h, k), x[d * h + h + h * k:]
        hidden = np.tanh(features @ w1 + b1)
        return hidden, hidden @ w2 + b2, w2

    def reference_value(self, loss, x):
        logits = self.reference(loss, x, loss.features)[1]
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        n = loss.features.shape[0]
        return -float(np.mean(logp[np.arange(n), loss.labels])) + 0.5 * loss.l2 * float(x @ x)

    def reference_gradient(self, loss, x):
        hidden, logits, w2 = self.reference(loss, x, loss.features)
        n = loss.features.shape[0]
        shifted = logits - logits.max(axis=1, keepdims=True)
        delta = np.exp(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))
        delta[np.arange(n), loss.labels] -= 1.0
        delta /= n
        g_w2, g_b2 = hidden.T @ delta, delta.sum(axis=0)
        delta = (delta @ w2.T) * (1.0 - hidden ** 2)
        g_w1, g_b1 = loss.features.T @ delta, delta.sum(axis=0)
        return np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2]) + loss.l2 * x

    def assert_matches_reference(self, loss, x, features):
        assert (np.float64(loss.value(x)).tobytes()
                == np.float64(self.reference_value(loss, x)).tobytes())
        assert loss.gradient(x).tobytes() == self.reference_gradient(loss, x).tobytes()
        want = self.reference(loss, x, features)[1].argmax(axis=1)
        assert loss.predict(x, features).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, d, hidden, classes, l2", [
        (1, 3, 4, 2, 0.0), (1, 8, 12, 10, 0.05), (20, 3, 4, 2, 0.0), (32, 8, 12, 10, 0.05),
        (8000, 8, 64, 10, 0.0), (8000, 8, 64, 10, 0.01),
    ])
    def test_bitwise_equal_to_allocating_reference(self, n, d, hidden, classes, l2):
        rng = Rng(n + hidden)
        loss = MlpLoss([d, hidden, classes], rng.normal(n * d).reshape(n, d) * 2.0,
                       np.array([i % classes for i in range(n)], dtype=np.int64), l2)
        for _ in range(2):  # the second round runs on a warm workspace
            x = rng.uniform(-1.5, 1.5, loss.dim)
            self.assert_matches_reference(loss, x, loss.features)
            self.assert_matches_reference(loss, x, rng.normal(7 * d).reshape(7, d))

    @pytest.mark.parametrize("classes", CLASS_COUNTS)
    def test_bitwise_equal_to_reference_at_every_class_count(self, classes):
        # the classes-first max and pairwise sum against the rows-first numpy reductions
        rng = Rng(classes)
        n = 3 * classes + 2
        loss = MlpLoss([4, 5, classes], rng.normal(n * 4).reshape(n, 4) * 3.0,
                       np.array([i % classes for i in range(n)], dtype=np.int64), 0.02)
        x = rng.uniform(-2.0, 2.0, loss.dim)
        self.assert_matches_reference(loss, x, loss.features)

    def test_instances_of_one_shape_interleave(self):
        rng = Rng(13)
        first, second = self.make(rng), self.make(rng)
        x1, x2 = rng.uniform(-1, 1, first.dim), rng.uniform(-1, 1, first.dim)
        for loss, x in [(first, x1), (second, x2), (first, x2), (second, x1), (first, x1)]:
            self.assert_matches_reference(loss, x, first.features)

    def test_results_do_not_alias_the_workspace(self):
        rng = Rng(14)
        loss = self.make(rng)
        x1, x2 = rng.uniform(-1, 1, loss.dim), rng.uniform(-1, 1, loss.dim)
        g1, p1 = loss.gradient(x1), loss.predict(x1, loss.features)
        g1_bytes, p1_bytes = g1.tobytes(), p1.tobytes()
        for pass_ in (loss.gradient, loss.value):
            pass_(x2)
        loss.predict(x2, loss.features)
        assert g1.tobytes() == g1_bytes and p1.tobytes() == p1_bytes

    def test_subset_matches_fresh_loss(self):
        rng = Rng(15)
        loss = self.make(rng, n=40, d=3, hidden=5, classes=3)
        idx = np.array([0, 3, 4, 9, 17, 22, 38, 39])
        fresh = MlpLoss(loss.sizes, loss.features[idx], loss.labels[idx], loss.l2)
        sub = loss.subset(idx)
        for _ in range(2):
            x = rng.uniform(-1, 1, loss.dim)
            assert np.float64(sub.value(x)).tobytes() == np.float64(fresh.value(x)).tobytes()
            assert sub.gradient(x).tobytes() == fresh.gradient(x).tobytes()
            loss.gradient(x)  # the full-size passes run between the subset's

    def test_warm_passes_allocate_less_than_one_hidden_layer(self):
        n, hidden = 8000, 64
        rng = Rng(16)
        loss = self.make(rng, n=n, d=8, hidden=hidden, classes=10)
        x = rng.uniform(-1, 1, loss.dim)
        loss.value(x)  # warm-up fills the workspace
        tracemalloc.start()
        try:
            for pass_ in (loss.gradient, loss.value):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                pass_(x)
                assert tracemalloc.get_traced_memory()[1] - base < n * hidden * 8, pass_.__name__
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("sizes", [[8], [8, 10], [8, 12, 12, 10]])
    def test_refuses_any_depth_but_one_hidden_layer(self, sizes):
        z = Rng(12).normal(40).reshape(5, 8)
        with pytest.raises(ValueError, match="one hidden layer"):
            MlpLoss(sizes, z, np.zeros(5, dtype=np.int64))


class TestClassesFirstReductions:
    """The log-softmax's reductions over a (classes, N) plane equal numpy's per-row
    reductions over an (N, classes) array, bit for bit."""

    @pytest.mark.parametrize("k", CLASS_COUNTS + [200, 300])
    def test_pairwise_sum_equals_np_sum(self, k):
        rng = Rng(k)
        rows = np.exp(rng.normal(37 * k).reshape(37, k) * 6.0)  # 37 positive rows of k
        want = np.sum(rows, axis=1)
        plane = np.ascontiguousarray(rows.T)
        assert losses._pairwise_sum(plane).tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", CLASS_COUNTS)
    def test_maximum_reduce_equals_np_max(self, k):
        rows = Rng(k).normal(37 * k).reshape(37, k)
        plane = np.ascontiguousarray(rows.T)
        assert np.maximum.reduce(plane, axis=0).tobytes() == np.max(rows, axis=1).tobytes()


class TestValueAndGrad:
    """``value_and_grad`` of a loss stack is ``(value(x), gradient(x))``, bit for bit."""

    @staticmethod
    def assert_pair(stack, x):
        want_v, want_g = stack.value(x), stack.gradient(x)
        got_v, got_g = stack.value_and_grad(x)
        assert got_v.tobytes() == want_v.tobytes() and got_g.tobytes() == want_g.tobytes()

    @staticmethod
    def mlps(n, rng, rows=12):
        return [MlpLoss([3, 5, 4], rng.normal(rows * 3).reshape(rows, 3),
                        np.array([(i + j) % 4 for j in range(rows)], dtype=np.int64), 0.01 * i)
                for i in range(n)]

    @pytest.mark.parametrize("n", [1, 3])
    def test_mlp_rows(self, n):
        rng = Rng(30 + n)
        stack = stack_losses(self.mlps(n, rng))
        assert type(stack) is losses._MlpRows
        for _ in range(2):  # the second round runs on a warm workspace
            self.assert_pair(stack, rng.uniform(-1.5, 1.5, n * stack.dim).reshape(n, -1))

    def test_mlp_subset(self):
        rng = Rng(33)
        stack = stack_losses(self.mlps(3, rng)).subset([np.array([0, 2, 5, 11])] * 3)
        self.assert_pair(stack, rng.uniform(-1.5, 1.5, 3 * stack.dim).reshape(3, -1))

    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    def test_member_rows(self, kind):
        rng = Rng(34)
        if kind == "quadratic":
            members = [QuadraticLoss(rng.uniform(-1, 1, 4), rng.uniform(0.5, 2, 4))
                       for _ in range(3)]
        else:
            members = [LogisticLoss(rng.normal(24).reshape(6, 4),
                                    np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0]), 0.05)
                       for _ in range(3)]
        stack = stack_losses(members)
        assert type(stack) is losses._MemberRows
        self.assert_pair(stack, rng.uniform(-1, 1, 12).reshape(3, 4))

    def test_gradient_does_not_alias_the_workspace(self):
        rng = Rng(35)
        stack = stack_losses(self.mlps(3, rng))
        x1, x2 = (rng.uniform(-1, 1, 3 * stack.dim).reshape(3, -1) for _ in range(2))
        v1, g1 = stack.value_and_grad(x1)
        v_bytes, g_bytes = v1.tobytes(), g1.tobytes()
        stack.value_and_grad(x2)
        stack.gradient(x2)
        assert v1.tobytes() == v_bytes and g1.tobytes() == g_bytes


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
    def test_grads_give_the_x_gradient_of_each_row(self, cfg):
        # with grads, objective_rows also returns each row's gradient of
        # f(x) + f(Q(x, c)) in x, as the one-row gradient and quantizer gradient add it
        loss, layout, x, cs, w = self.make()
        rng = Rng(19)
        members = [loss, MlpLoss([3, 4, 2], rng.normal(30).reshape(10, 3),
                                 np.array([1, 0, 0] * 3 + [1], dtype=np.int64), 0.05)]
        xs, ws = np.stack([x, -0.5 * x]), np.stack([w, w])
        stacks = [CenterStack.of([c, c]) for c in cs]
        ev, g = objective_rows(stack_losses(members), xs, stacks, layout, ws, cfg, 0.3, 0.7,
                               grads=True)
        plain = objective_rows(stack_losses(members), xs, stacks, layout, ws, cfg, 0.3, 0.7)
        assert all(getattr(ev, k).tobytes() == v.tobytes() for k, v in vars(plain).items())
        for member, row, got in zip(members, xs, g):
            want = member.gradient(row)
            want += loss_quant_gradient_x(member, row, cs, layout, cfg)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("coord", [0, 13], ids=["weight", "bias"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf], ids=["inf", "minus-inf"])
    @pytest.mark.parametrize("cfg", CFGS, ids=["hard", "soft"])
    def test_infinite_coordinate_gives_nan_without_warning(self, cfg, bad, coord):
        # pyproject turns RuntimeWarnings into errors: inf - inf in the log-softmax and
        # inf * 0 in the loss must not raise, and the total is the documented NaN
        loss, layout, x, cs, w = self.make()
        x[coord] = bad
        ev = eval_F_i_grouped(loss, x, cs, layout, w, cfg, 0.3, 0.7)
        assert np.isnan(ev.f_x) and np.isnan(ev.total)

    @pytest.mark.parametrize("cfg", CFGS, ids=["hard", "soft"])
    def test_quantizes_each_group_once(self, cfg, monkeypatch):
        loss, layout, x, cs, w = self.make()
        calls = []

        def counted(y, mids):
            calls.append(y.size)
            return assign_rows(y, mids)

        monkeypatch.setattr(losses, "assign_rows", counted)
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


class TestStackedSoftQuantizer:
    """The soft quantizer of a padded ``CenterStack`` against the per-row formulas in
    ``tests/helpers.py``, bit for bit; m = 1 and padded by_m blocks included."""

    CFG = QuantConfig(sharpness=8.0)

    def make(self):
        rng = Rng(21)
        vectors = [CenterVector(np.sort(rng.uniform(-1.5, 1.5, m)), c_max=3.0)
                   for m in (8, 1, 4, 2, 8, 4, 1)]
        return rng.uniform(-2, 2, 7 * 9).reshape(7, 9), rng.normal(7 * 9).reshape(7, 9), vectors

    def test_rows_match_the_per_row_formulas(self):
        y, up, vectors = self.make()
        stack, P = CenterStack.of(vectors), self.CFG.sharpness
        q, gx, gc = (soft_quantize_rows(y, stack, P), soft_grad_x_rows(y, stack, P),
                     soft_grad_c_rows(y, stack, P, up))
        for i, c in enumerate(vectors):
            assert q[i].tobytes() == soft_quantize_row(y[i], c, self.CFG).tobytes()
            assert gx[i].tobytes() == grad_soft_quantize_x_row(y[i], c, self.CFG).tobytes()
            want = grad_soft_quantize_c_row(y[i], c, self.CFG) @ up[i]
            assert gc[i, :c.m].tobytes() == want.tobytes()
            assert not gc[i, c.m:].any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
    @pytest.mark.parametrize("quantize", [
        lambda x, cs, layout, cfg: soft_quantize(x, cs[0], cfg), quantize_grouped,
    ], ids=["soft_quantize", "quantize_grouped"])
    def test_refuses_a_nonfinite_quantized_coordinate(self, quantize, bad):
        x = np.array([0.2, bad, -0.4])
        with pytest.raises(ValueError, match="^non-finite values in input vector$"):
            quantize(x, [centers(-0.5, 0.5)], QuantLayout.full(3), self.CFG)

    def test_exempt_coordinates_pass_through_unchecked(self):
        x = np.array([0.2, -0.4, np.nan])
        q = quantize_grouped(x, [centers(-0.5, 0.5)], QuantLayout(3, ((0, 2),)), self.CFG)
        assert np.isnan(q[2]) and np.isfinite(q[:2]).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_objective_of_a_nonfinite_row_is_nan_without_warning(self, bad):
        # pyproject turns RuntimeWarnings into errors: the non-finite row must raise none
        loss = QuadraticLoss([0.1, -0.3, 0.6], [1.0, 2.0, 0.5])
        layout, cs = QuantLayout.full(3), [centers(-0.5, 0.0, 0.5)]
        x = np.array([[0.2, -0.4, 0.3], [0.2, bad, 0.3]])
        ev = objective_rows(stack_losses([loss, loss]), x,
                            [CenterStack.of([cs[0], cs[0]])], layout, x, self.CFG, 0.1, 0.0)
        assert np.isnan(ev.f_q[1]) and np.isnan(ev.total[1])
        one = eval_F_i_grouped(loss, x[0], cs, layout, x[0], self.CFG, 0.1, 0.0)
        assert ev.f_q[0] == one.f_q and ev.total[0] == one.total
        single = eval_F_i_grouped(loss, x[1], cs, layout, x[1], self.CFG, 0.1, 0.0)
        assert np.isnan(single.f_q) and np.isnan(single.total)
