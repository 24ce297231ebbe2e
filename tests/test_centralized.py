import dataclasses
import json

import numpy as np
import pytest

from qupel import federated
from qupel.centralized import (
    DivergenceError,
    _quantiles,
    HyperParams,
    LambdaSchedule,
    init_centers_from_weights,
    init_weights,
    run_centralized,
    safe_step_sizes,
    stationarity_gap,
)
from qupel.federated import ClientState, client_local_step
from qupel.losses import QuadraticLoss, QuantLayout, eval_F_i_grouped, loss_quant_gradient_x
from qupel.proxops import ProxParams, prox_x
from qupel.quantizer import QuantConfig
from qupel.rng import Rng

from helpers import centers, clustered_quadratic, hard_cfg


def one_step(x, c, loss, hp, t, layout=None):
    """One step of the kernel on a lone client at lambda_p = 0; returns the new (x, centers)."""
    new = client_local_step(ClientState(id=0, x=x, centers=c, w_local=x, loss=loss,
                                        layout=layout), hp, t)
    return new.x, new.centers


class TestSchedules:
    def test_constant(self):
        assert LambdaSchedule.constant(0.3).lam(17) == 0.3

    def test_linear_ramp_with_cap(self):
        sched = LambdaSchedule.linear(1e-4, cap=0.05)
        assert sched.lam(0) == 0.0
        assert sched.lam(100) == pytest.approx(0.01)
        assert sched.lam(10_000) == 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            HyperParams(eta1=0.0, eta2=0.1, steps=5)
        with pytest.raises(ValueError):
            HyperParams(eta1=0.1, eta2=0.1, steps=5, fine_tune_start=9)


@pytest.mark.parametrize("make", [
    lambda: LambdaSchedule.constant(-0.1),
    lambda: LambdaSchedule.constant(float("nan")),
    lambda: LambdaSchedule.linear(float("inf")),
    lambda: LambdaSchedule.linear(0.1, cap=-1.0),
    lambda: LambdaSchedule.linear(0.1, cap=float("nan")),
], ids=["constant-negative", "constant-nan", "base-inf", "cap-negative", "cap-nan"])
def test_lambda_schedule_refuses_out_of_range(make):
    with pytest.raises(ValueError):
        make()


_NONNEG = "eta2, eta3 and lambda_p must be finite and nonnegative"
_OVERFLOW = r"lambda\(t\) \* eta1 and lambda\(t\) \* eta2 must stay finite"


@pytest.mark.parametrize("bad, message", [
    (dict(eta2=float("nan")), _NONNEG), (dict(eta3=float("inf")), _NONNEG),
    (dict(lambda_p=float("nan")), _NONNEG),
    (dict(divergence_factor=0.0), "divergence_factor must be positive"),
    (dict(divergence_factor=-1.0), "divergence_factor must be positive"),
    (dict(divergence_factor=float("nan")), "divergence_factor must be positive"),
    (dict(checkpoint_every=0), "checkpoint_every must be >= 1"),
    (dict(checkpoint_every=-1), "checkpoint_every must be >= 1"),
    (dict(eta2=1e300, lambda_schedule=LambdaSchedule.constant(1e10)), _OVERFLOW),
    (dict(eta1=1e300, lambda_schedule=LambdaSchedule.constant(1e10)), _OVERFLOW),
    (dict(lambda_schedule=LambdaSchedule.linear(1e308)), _OVERFLOW),
    # lambda(8) * 1.1 = 1.67e308 is finite; lambda(9) * 1.1, at the last step, overflows
    (dict(eta1=1.1, lambda_schedule=LambdaSchedule.linear(1.9e307)), _OVERFLOW),
    (dict(steps=-1), "steps must be nonnegative"),
    (dict(tau=0), "tau must be a positive integer"),
    (dict(metrics_every=0), "metrics_every must be >= 1"),
    (dict(batch_size=0), "batch_size must be a positive integer"),
], ids=["eta2-nan", "eta3-inf", "lambda-p-nan", "divergence-zero", "divergence-negative",
        "divergence-nan", "checkpoint-zero", "checkpoint-negative",
        "lambda-eta2-overflow", "lambda-eta1-overflow", "lambda-ramp-overflow",
        "lambda-late-ramp-overflow", "steps-negative", "tau-zero", "metrics-every-zero",
        "batch-size-zero"])
def test_hyperparams_refuse_out_of_range(bad, message):
    with pytest.raises(ValueError, match=message):
        HyperParams(**{"eta1": 0.1, "eta2": 0.1, "steps": 10, **bad})


@pytest.mark.parametrize("fine", [
    # lambda(9) * 1.1 = 1.68e308 is finite; only lambda(10), after the run, overflows
    dict(eta1=1.1, lambda_schedule=LambdaSchedule.linear(1.7e307)),
    dict(lambda_schedule=LambdaSchedule.linear(1e308, cap=1.0)),
    dict(steps=0, eta2=1e300, lambda_schedule=LambdaSchedule.constant(1e10)),
], ids=["ramp-after-the-run", "ramp-capped", "no-steps"])
def test_hyperparams_bound_only_the_steps_that_run(fine):
    HyperParams(**{"eta1": 0.1, "eta2": 0.1, "steps": 10, **fine})


# one value per HyperParams field that differs from BASE_HP's
OTHER_HP_VALUES = {
    "eta1": 0.2, "eta2": 0.2, "steps": 11, "eta3": 0.5,
    "lambda_schedule": LambdaSchedule.constant(0.01), "lambda_p": 1.0, "tau": 2,
    "fine_tune_start": 5, "quant_cfg": QuantConfig(sharpness=2.0),
    "divergence_factor": 1e3, "metrics_every": 5, "batch_size": 4, "checkpoint_every": 3,
}


@pytest.mark.parametrize("field", dataclasses.fields(HyperParams), ids=lambda f: f.name)
def test_config_hash_covers_every_field(field):
    base = HyperParams(eta1=0.1, eta2=0.1, steps=10)
    other = dataclasses.replace(base, **{field.name: OTHER_HP_VALUES[field.name]})
    assert getattr(other, field.name) != getattr(base, field.name)
    assert other.config_hash() != base.config_hash()


@pytest.mark.parametrize("call", [
    lambda loss, c: ClientState(id=0, x=np.zeros(2), centers=c, w_local=np.zeros(2), loss=loss),
    lambda loss, c: run_centralized(loss, np.zeros(2), c,
                                    HyperParams(eta1=0.1, eta2=0.1, steps=1)),
    lambda loss, c: safe_step_sizes(loss, np.zeros(2), c, cfg=hard_cfg()),
    lambda loss, c: eval_F_i_grouped(loss, np.zeros(2), c, QuantLayout.full(2), np.zeros(2),
                                     hard_cfg(), 0.0, 0.0),
], ids=["ClientState", "run_centralized", "safe_step_sizes", "eval_F_i_grouped"])
def test_lone_center_vector_is_refused(call):
    with pytest.raises(ValueError, match="^centers are a list of CenterVectors, one per "
                                         "quantized group: need 1$"):
        call(QuadraticLoss([0.1, 0.9], [1.0, 1.0]), centers(0.0, 1.0))


class TestCentralizedStep:
    def test_reduces_to_gradient_descent(self):
        # lambda = 0 and hard limit: prox is identity and the chain term vanishes
        loss = QuadraticLoss([1.0, -1.0], [1.0, 2.0])
        hp = HyperParams(eta1=0.25, eta2=0.0, steps=1, quant_cfg=hard_cfg())
        x = np.array([0.5, 0.5])
        x1, c1 = one_step(x, [centers(0.0, 1.0)], loss, hp, t=0)
        np.testing.assert_array_equal(x1, x - 0.25 * loss.gradient(x))

    def test_hand_example(self):
        loss = QuadraticLoss([1.0], [1.0])
        hp = HyperParams(eta1=0.5, eta2=0.0, steps=1, quant_cfg=hard_cfg())
        x1, _ = one_step(np.array([0.0]), [centers(0.0, 1.0)], loss, hp, t=0)
        assert x1[0] == pytest.approx(0.5, abs=0)

    def test_x_update_matches_prox_composition(self):
        loss = QuadraticLoss([1.0], [1.0])
        lam = 0.4  # lambda * eta1 = 0.2
        hp = HyperParams(eta1=0.5, eta2=0.0, steps=1, quant_cfg=hard_cfg(),
                         lambda_schedule=LambdaSchedule.constant(lam))
        x = np.array([0.0])
        c = centers(0.0, 1.0)
        x1, _ = one_step(x, [c], loss, hp, t=0)
        y = x - 0.5 * loss.gradient(x)
        want = prox_x(y, c, ProxParams(eta=0.5, lam=lam))
        np.testing.assert_array_equal(x1, want)

    def test_minibatch_setting_is_not_silently_ignored(self):
        loss = QuadraticLoss([1.0], [1.0])
        hp = HyperParams(eta1=0.5, eta2=0.0, steps=1, quant_cfg=hard_cfg(), batch_size=1)
        with pytest.raises(ValueError, match="rng"):
            one_step(np.array([0.0]), [centers(0.0, 1.0)], loss, hp, t=0)

    def test_centers_come_back_as_a_list(self):
        loss = QuadraticLoss([1.0], [1.0])
        hp = HyperParams(eta1=0.5, eta2=0.1, steps=1, quant_cfg=hard_cfg())
        _, c1 = one_step(np.array([0.0]), [centers(0.0, 1.0)], loss, hp, t=0)
        assert isinstance(c1, list) and len(c1) == 1


class TestRunCentralized:
    def test_zero_steps(self):
        loss = QuadraticLoss([0.3], [1.0])
        res = run_centralized(loss, np.array([0.2]), [centers(0.0, 1.0)],
                              HyperParams(eta1=0.1, eta2=0.1, steps=0, quant_cfg=hard_cfg()))
        assert res.history == []
        assert res.x_hard[0] == 0.0  # 0.2 maps to the nearest center

    def test_two_target_example(self):
        # centers at the two quadratic targets are the global minimizer
        loss = QuadraticLoss([0.1, 0.9], [1.0, 1.0])
        rng = Rng(42)
        x0 = init_weights(2, rng)
        c0 = init_centers_from_weights(x0, 2, c_max=5.0)
        e1, e2 = safe_step_sizes(loss, x0, [c0], cfg=hard_cfg())
        hp = HyperParams(eta1=e1, eta2=e2, steps=10_000, quant_cfg=hard_cfg(),
                         lambda_schedule=LambdaSchedule.constant(0.05))
        res = run_centralized(loss, x0, [c0], hp)
        assert res.history[-1]["stationarity_gap"] < 1e-6
        np.testing.assert_allclose(res.centers_final[0].values, [0.1, 0.9], atol=1e-3)

    def test_monotone_decrease_on_quadratic_suite(self):
        loss, x0, c0 = clustered_quadratic(seed=5, m=4)
        e1, e2 = safe_step_sizes(loss, x0, [c0], cfg=hard_cfg())
        hp = HyperParams(eta1=e1, eta2=e2, steps=2000, quant_cfg=hard_cfg(),
                         lambda_schedule=LambdaSchedule.constant(0.2))
        res = run_centralized(loss, x0, [c0], hp)
        tot = np.array([m["F_total"] for m in res.history])
        assert np.all(np.diff(tot) <= 1e-10)

    def test_soft_mode_x_side_sufficient_decrease(self):
        # with eta1 = 1/(2 Lx), F(x', c) + (Lx/2)||x'-x||^2 <= F(x, c)
        loss, x0, c0 = clustered_quadratic(seed=8, m=2)
        cfg = QuantConfig(sharpness=8.0)
        e1, e2 = safe_step_sizes(loss, x0, [c0], cfg=cfg)
        lam = 0.1
        hp = HyperParams(eta1=e1, eta2=e2, steps=300, quant_cfg=cfg,
                         lambda_schedule=LambdaSchedule.constant(lam))
        layout = QuantLayout.full(loss.dim)
        lx = 1.0 / (2.0 * e1)
        x, cs = x0, [c0]
        for t in range(hp.steps):
            before = eval_F_i_grouped(loss, x, cs, layout, x, cfg, lam, 0.0).total
            g = loss.gradient(x) + loss_quant_gradient_x(loss, x, cs, layout, cfg)
            x_mid = prox_x(x - e1 * g, cs[0], ProxParams(eta=e1, lam=lam))
            mid = eval_F_i_grouped(loss, x_mid, cs, layout, x_mid, cfg, lam, 0.0).total
            dx = float(np.sum((x_mid - x) ** 2))
            assert mid + 0.5 * lx * dx <= before + 1e-10
            x, cs = one_step(x, cs, loss, hp, t, layout=layout)

    @pytest.mark.parametrize("hard_limit", [True, False], ids=["hard", "soft"])
    def test_overflow_within_one_step_is_divergence(self, hard_limit):
        # eta1 * h = 1e320: the first gradient step overflows to +-inf
        loss = QuadraticLoss([0.1, 0.9], [1e300, 1.0])
        hp = HyperParams(eta1=1e20, eta2=0.3, steps=10,
                         quant_cfg=QuantConfig(sharpness=8.0, hard_limit=hard_limit),
                         lambda_schedule=LambdaSchedule.constant(0.05))
        with pytest.raises(DivergenceError, match="^client 0 objective diverged at step 0:"):
            run_centralized(loss, np.array([0.3, 0.2]), [centers(0.0, 1.0, c_max=5.0)], hp)

    def test_nonfinite_start_refused_before_any_step(self, monkeypatch):
        steps = []
        monkeypatch.setattr(federated, "_step", lambda *a, **k: steps.append(a))
        loss = QuadraticLoss([0.1, 0.9], [1.0, 1.0])
        hp = HyperParams(eta1=0.1, eta2=0.1, steps=5, quant_cfg=hard_cfg())
        with pytest.raises(ValueError, match="^client 0: starting x"):
            run_centralized(loss, np.array([np.nan, 0.2]), [centers(0.0, 1.0)], hp)
        assert steps == []

    def test_divergence_aborts(self):
        loss = QuadraticLoss([0.0], [10.0])
        hp = HyperParams(eta1=5.0, eta2=0.0, steps=200, quant_cfg=hard_cfg())
        with pytest.raises(DivergenceError):
            run_centralized(loss, np.array([1.0]), [centers(0.0)], hp)

    def test_bitwise_determinism(self):
        loss, x0, c0 = clustered_quadratic(seed=3, m=2)
        hp = HyperParams(eta1=0.05, eta2=0.02, steps=200, quant_cfg=hard_cfg(),
                         lambda_schedule=LambdaSchedule.linear(1e-4, cap=0.3))
        r1 = run_centralized(loss, x0, [c0], hp)
        r2 = run_centralized(loss, x0, [c0], hp)
        assert np.array_equal(r1.x_final, r2.x_final)
        assert np.array_equal(r1.centers_final[0].values, r2.centers_final[0].values)
        assert [m["F_total"] for m in r1.history] == [m["F_total"] for m in r2.history]

    def test_fine_tune_freezes_on_centers(self):
        loss, x0, c0 = clustered_quadratic(seed=9, m=2)
        hp = HyperParams(eta1=0.05, eta2=0.02, steps=400, fine_tune_start=300,
                         quant_cfg=hard_cfg(), lambda_schedule=LambdaSchedule.constant(0.1))
        res = run_centralized(loss, x0, [c0], hp)
        # quantized coordinates sit exactly on the final centers
        assert res.history[-1]["quant_error"] == 0.0
        assert float(np.sum(np.abs(res.x_final - res.x_hard))) == 0.0
        # centers keep training during fine-tuning
        pre_ft = None
        for m in res.history:
            if m["step"] == 300:
                pre_ft = m["F_total"]
        assert res.history[-1]["F_total"] <= pre_ft + 1e-12

    def test_exempt_coordinates_keep_training_during_fine_tune(self):
        loss = QuadraticLoss([0.4, -0.7], [1.0, 1.0])
        layout = QuantLayout(2, ((0, 1),))
        hp = HyperParams(eta1=0.2, eta2=0.05, steps=200, fine_tune_start=50,
                         quant_cfg=hard_cfg(), lambda_schedule=LambdaSchedule.constant(0.05))
        res = run_centralized(loss, np.array([0.1, 0.1]), [centers(0.0, 1.0)], hp, layout=layout)
        assert res.x_final[1] == pytest.approx(-0.7, abs=1e-6)  # exempt coord reaches target
        assert res.x_final[0] in res.centers_final[0].values

    def test_checkpoint_schema(self, tmp_path):
        loss, x0, c0 = clustered_quadratic(seed=2, m=2)
        path = tmp_path / "ckpt.json"
        # lambda_p, which the centralized loop steps at 0, still enters the caller's hash
        hp = HyperParams(eta1=0.05, eta2=0.02, steps=20, quant_cfg=hard_cfg(),
                         checkpoint_every=10, lambda_p=0.5)
        run_centralized(loss, x0, [c0], hp, checkpoint_path=path)
        payload = json.loads(path.read_text())
        assert payload["step"] == 20
        assert len(payload["x"]) == loss.dim
        assert payload["hyperparams_hash"] == hp.config_hash()


class TestStationarityGap:
    def test_fixed_point_zero(self):
        hp = HyperParams(eta1=0.1, eta2=0.1, steps=1, quant_cfg=hard_cfg())
        c = centers(0.0, 1.0)
        x = np.array([0.4])
        assert stationarity_gap(x, x, [c], [c], hp) == 0.0

    def test_decreases_to_zero_on_quadratic(self):
        loss, x0, c0 = clustered_quadratic(seed=4, m=2)
        e1, e2 = safe_step_sizes(loss, x0, [c0], cfg=hard_cfg())
        hp = HyperParams(eta1=e1, eta2=e2, steps=4000, quant_cfg=hard_cfg(),
                         lambda_schedule=LambdaSchedule.constant(0.2))
        res = run_centralized(loss, x0, [c0], hp)
        gaps = np.array([m["stationarity_gap"] for m in res.history])
        assert gaps[-1] < 1e-10

    def test_running_average_nonincreasing(self):
        loss, x0, c0 = clustered_quadratic(seed=4, m=2)
        e1, e2 = safe_step_sizes(loss, x0, [c0], cfg=hard_cfg())
        hp = HyperParams(eta1=e1, eta2=e2, steps=2000, quant_cfg=hard_cfg(),
                         lambda_schedule=LambdaSchedule.constant(0.2))
        res = run_centralized(loss, x0, [c0], hp)
        gaps = np.array([m["stationarity_gap"] for m in res.history])
        avg = np.cumsum(gaps) / np.arange(1, gaps.size + 1)
        assert np.all(np.diff(avg) <= 1e-12)


class TestSafeStepSizes:
    def test_hard_mode_matches_curvature(self):
        loss = QuadraticLoss([0.0, 0.0], [1.0, 3.0])
        e1, _ = safe_step_sizes(loss, np.zeros(2), [centers(-1.0, 1.0)], cfg=hard_cfg(),
                                safety=1.0)
        # hard mode composite curvature is the loss curvature alone
        assert e1 == pytest.approx(1.0 / (2.0 * 3.0), rel=1e-3)

    def test_lambda_p_stiffens_x_step(self):
        loss = QuadraticLoss([0.0], [1.0])
        e_plain, _ = safe_step_sizes(loss, np.zeros(1), [centers(0.0)], cfg=hard_cfg())
        e_coupled, _ = safe_step_sizes(loss, np.zeros(1), [centers(0.0)], cfg=hard_cfg(),
                                       lambda_p=3.0)
        assert e_coupled < e_plain


class TestInitCenters:
    def test_quantiles_equal_numpys_linear_rule(self):
        # ties, signed zeros and repeated values included; one element is returned as is
        rng = np.random.default_rng(11)
        pools = [None, np.array([-0.0, 0.0, 1.0, -1.0, 0.5]), np.round(rng.normal(size=50), 1)]
        for trial in range(3000):
            n = int(rng.integers(1, 40))
            pool = pools[trial % 3]
            x = rng.normal(size=n) if pool is None else rng.choice(pool, size=n)
            m = int(rng.integers(1, 17))
            qs = (np.arange(1, m + 1) - 0.5) / m if trial % 2 else rng.uniform(0.0, 1.0, m)
            want = np.full(m, x[0]) if n == 1 else np.quantile(x, qs)
            assert _quantiles(x, qs).tobytes() == want.tobytes(), (x, qs)

    def test_quantiles_of_nan_are_nan(self):
        assert np.isnan(_quantiles(np.array([1.0, np.nan, 2.0]), np.array([0.25, 0.5]))).all()
