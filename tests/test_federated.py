import logging
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qupel import federated
from qupel.centralized import (
    DivergenceError,
    HyperParams,
    LambdaSchedule,
    run_centralized,
)
from qupel.federated import (
    ClientState,
    client_local_step,
    estimate_diversity,
    run_fedavg,
    run_local_only,
    run_qupel,
    sync_round,
)
from qupel.data import partition_noniid
from qupel.diagnostics import evaluate_accuracy
from qupel.experiments import build_blob_task, build_clients
from qupel.losses import QuadraticLoss
from qupel.quantizer import CenterVector
from qupel.rng import Rng

from helpers import (
    centers,
    clustered_quadratic,
    crossing_reports,
    hard_cfg,
    results_identical,
)


def make_client(cid, seed=None, d=4, m=2, target_shift=0.0):
    rng = Rng(seed if seed is not None else 100 + cid)
    a = rng.uniform(-1, 1, d) + target_shift
    h = rng.uniform(0.5, 2.0, d)
    x0 = rng.uniform(-0.5, 0.5, d)
    vals = np.sort(rng.uniform(-1, 1, m))
    for j in range(1, m):
        vals[j] = max(vals[j], vals[j - 1] + 0.3)
    return ClientState(id=cid, x=x0, centers=[centers(*vals)], w_local=x0.copy(),
                       loss=QuadraticLoss(a, h))


@pytest.mark.parametrize("x, w", [(np.zeros(2), np.zeros(3)), (np.zeros(3), np.zeros(3))],
                         ids=["w-local-off", "both-off"])
def test_client_state_refuses_mismatched_dimensions(x, w):
    with pytest.raises(ValueError, match="^client model and global copy must share the loss "
                                         "dimension$"):
        ClientState(id=0, x=x, centers=[centers(0.0)], w_local=w,
                    loss=QuadraticLoss([0.0, 0.0], [1.0, 1.0]))


class TestClientLocalStep:
    def test_decouples_at_zero_coupling(self):
        cs = make_client(0)
        hp = HyperParams(eta1=0.1, eta2=0.05, steps=10, quant_cfg=hard_cfg(),
                         lambda_schedule=LambdaSchedule.constant(0.1), lambda_p=0.0, eta3=0.5)
        stepped = client_local_step(cs, hp, t=3)
        # the same client with another global-model copy steps (x, c) alike
        ref = client_local_step(replace(cs, w_local=cs.w_local + 7.0), hp, t=3)
        x_ref, c_ref = ref.x, ref.centers
        assert np.array_equal(stepped.x, x_ref)
        assert np.array_equal(stepped.centers[0].values, c_ref[0].values)
        assert np.array_equal(stepped.w_local, cs.w_local)

    def test_w_update_hand_value(self):
        # eta3 * lambda_p = 0.125 moves w an eighth of the way toward x
        loss = QuadraticLoss([1.0], [1e-9])
        cs = ClientState(id=0, x=np.array([1.0]), centers=[centers(1.0)],
                         w_local=np.array([0.0]), loss=loss)
        hp = HyperParams(eta1=1e-6, eta2=0.0, steps=1, quant_cfg=hard_cfg(),
                         lambda_p=0.25, eta3=0.5)
        stepped = client_local_step(cs, hp, t=1)
        assert stepped.w_local[0] == pytest.approx(0.125, abs=1e-9)

    def test_zero_coupling_when_models_agree(self):
        cs = make_client(1)
        cs_at_w = ClientState(id=1, x=cs.w_local.copy(), centers=cs.centers,
                              w_local=cs.w_local, loss=cs.loss)
        hp_free = HyperParams(eta1=0.1, eta2=0.05, steps=1, quant_cfg=hard_cfg(), lambda_p=0.0)
        hp_tied = HyperParams(eta1=0.1, eta2=0.05, steps=1, quant_cfg=hard_cfg(), lambda_p=5.0)
        a = client_local_step(cs_at_w, hp_free, t=1)
        b = client_local_step(cs_at_w, hp_tied, t=1)
        np.testing.assert_allclose(a.x, b.x, atol=1e-15)


class TestSyncRound:
    def test_mean_broadcast(self):
        c1 = make_client(0)
        c2 = make_client(1)
        c1.w_local = np.array([1.0, 0.0, 0.0, 0.0])
        c2.w_local = np.array([0.0, 1.0, 0.0, 0.0])
        clients, w_global = sync_round([c1, c2])
        np.testing.assert_array_equal(w_global, [0.5, 0.5, 0.0, 0.0])
        for c in clients:
            np.testing.assert_array_equal(c.w_local, w_global)

    def test_equal_inputs_unchanged(self):
        c1, c2 = make_client(0), make_client(1)
        w = np.array([0.2, -0.1, 0.4, 0.0])
        c1.w_local = w.copy()
        c2.w_local = w.copy()
        clients, w_global = sync_round([c1, c2])
        np.testing.assert_array_equal(w_global, w)

    def test_dimension_mismatch(self):
        c1 = make_client(0, d=4)
        c2 = make_client(1, d=4)
        c2.w_local = np.zeros(5)
        with pytest.raises(ValueError):
            sync_round([c1, c2])


class TestRunQupel:
    def qupel_hp(self, lambda_p=0.0, steps=60, tau=5, eta3=0.2, fine_tune_start=None):
        return HyperParams(eta1=0.05, eta2=0.02, steps=steps, tau=tau, eta3=eta3,
                           lambda_p=lambda_p, quant_cfg=hard_cfg(),
                           lambda_schedule=LambdaSchedule.linear(1e-3, cap=0.2),
                           fine_tune_start=fine_tune_start)

    @pytest.mark.parametrize("fine_tune_start", [None, 40])
    def test_single_client_matches_centralized_bitwise(self, fine_tune_start):
        cs = make_client(0)
        hp = self.qupel_hp(lambda_p=0.0, fine_tune_start=fine_tune_start)
        fed = run_qupel([cs], hp)
        cen = run_centralized(cs.loss, cs.x, cs.centers, hp)
        assert results_identical(fed.per_client[0], cen)

    @pytest.mark.parametrize("fine_tune_start", [None, 40])
    def test_zero_coupling_matches_local_only_bitwise(self, fine_tune_start):
        clients = [make_client(i) for i in range(4)]
        hp = self.qupel_hp(lambda_p=0.0, fine_tune_start=fine_tune_start)
        fed = run_qupel(clients, hp)
        loc = run_local_only(clients, hp)
        assert all(results_identical(f, l) for f, l in zip(fed.per_client, loc))

    def test_identical_clients_stay_identical(self):
        base = make_client(0, seed=55)
        clones = [
            ClientState(id=i, x=base.x.copy(), centers=base.centers,
                        w_local=base.w_local.copy(), loss=base.loss)
            for i in range(3)
        ]
        hp = self.qupel_hp(lambda_p=0.7, tau=1, eta3=0.3)
        fed = run_qupel(clones, hp)
        ref = fed.per_client[0]
        for r in fed.per_client[1:]:
            assert np.array_equal(r.x_final, ref.x_final)
            assert np.array_equal(r.x_hard, ref.x_hard)
            # identical per-step metrics means identical states at every step
            for ma, mb in zip(r.history, ref.history):
                assert (ma["F_total"], ma["stationarity_gap"], ma["quant_error"]) == (
                    mb["F_total"], mb["stationarity_gap"], mb["quant_error"])

    def test_post_sync_equality(self):
        clients = [make_client(i) for i in range(3)]
        hp = self.qupel_hp(lambda_p=0.5, tau=4, eta3=0.2)
        fed = run_qupel(clients, hp)
        synced = [rec for rec in fed.global_history if rec["synced"]]
        assert synced and all(rec["post_sync_dev"] == 0.0 for rec in synced)

    def test_client_permutation_symmetry(self):
        clients = [make_client(i) for i in range(3)]
        hp = self.qupel_hp(lambda_p=0.4)
        fed1 = run_qupel(clients, hp)
        shuffled = [clients[2], clients[0], clients[1]]
        fed2 = run_qupel(shuffled, hp)
        for a, b in zip(fed1.per_client, fed2.per_client):
            assert np.array_equal(a.x_final, b.x_final)

    def test_collaboration_moves_w(self):
        clients = [make_client(i) for i in range(3)]
        hp = self.qupel_hp(lambda_p=1.0, eta3=0.5)
        fed = run_qupel(clients, hp)
        assert not np.array_equal(fed.w_global, clients[0].w_local)

    def test_w_global_is_the_mean_of_the_last_sync(self, monkeypatch):
        synced = []
        server_mean = federated._server_mean

        def recording_mean(w):  # the local copies as rows, in ascending id
            synced.append(list(w.copy()))
            return server_mean(w)

        monkeypatch.setattr(federated, "_server_mean", recording_mean)
        clients = [make_client(i) for i in (2, 0, 1)]
        fed = run_qupel(clients, self.qupel_hp(lambda_p=1.0, eta3=0.5, steps=12, tau=5))
        assert len(synced) == 3  # steps 0, 5 and 10
        np.testing.assert_array_equal(fed.w_global, np.mean(np.stack(synced[-1]), axis=0))

    def test_cadence_records_kappa_and_mean_accuracy(self, monkeypatch):
        stepped, means = [], []
        step, server_mean = federated._step, federated._server_mean

        def recording_step(rows, *args, **kwargs):  # one stepped client per row, in id order
            new = step(rows, *args, **kwargs)
            stepped.extend(replace(cs, x=x) for cs, x in zip(clients, new.x))
            return new

        def recording_mean(w):
            means.append(server_mean(w))
            return means[-1]

        monkeypatch.setattr(federated, "_step", recording_step)
        monkeypatch.setattr(federated, "_server_mean", recording_mean)
        task = build_blob_task(n_classes=4, dim=3, per_class=10, spread=0.6, seed=3)
        clients = build_clients(task, partition_noniid(task.train, 3, 2, 3), m_list=[4, 4, 2],
                                seed=3, hidden=4)
        hp = HyperParams(eta1=0.1, eta2=0.01, steps=7, tau=2, eta3=0.3, lambda_p=1.0,
                         quant_cfg=hard_cfg(), lambda_schedule=LambdaSchedule.constant(0.01),
                         metrics_every=3)
        fed = run_qupel(clients, hp)
        n = len(clients)
        assert len(stepped) == n * hp.steps and len(means) == 4  # syncs at steps 0, 2, 4, 6
        for t, server in enumerate(fed.global_history):
            records = [r.history[t] for r in fed.per_client]
            if t not in (0, 3, 6):  # the cadence: every third step and the last
                assert all(r["kappa_round"] is None and r["test_acc"] is None for r in records)
                assert server.get("kappa") is None and server.get("mean_test_acc") is None
                continue
            post = stepped[n * t:n * (t + 1)]
            kappa_i = estimate_diversity(post, means[t // hp.tau], hp.lambda_p)
            accs = [evaluate_accuracy(cs.loss, cs.x, cs.test) for cs in post]
            assert [r["kappa_round"] for r in records] == list(kappa_i)
            assert [r["test_acc"] for r in records] == accs
            assert server["kappa"] == float(np.mean(kappa_i))
            assert server["mean_test_acc"] == float(np.mean(accs))

    def test_w_global_is_none_without_the_server(self):
        hp = self.qupel_hp(steps=3)
        assert federated._train([make_client(0)], hp, federated=False).w_global is None

    def test_nonfinite_start_refused_naming_the_client(self, monkeypatch):
        steps = []
        monkeypatch.setattr(federated, "_step", lambda *a, **k: steps.append(a))
        clients = [make_client(i) for i in range(3)]
        clients[1].x[2] = np.nan
        with pytest.raises(ValueError, match="^client 1: starting x"):
            run_qupel(clients, self.qupel_hp(lambda_p=0.5))
        assert steps == []

    def test_nonfinite_objective_at_start_refused_naming_the_client(self, monkeypatch):
        steps = []
        monkeypatch.setattr(federated, "_step", lambda *a, **k: steps.append(a))
        clients = [make_client(i) for i in range(3)]
        # finite x, but f(x) = 0.5 * sum(h * (x - a)^2) overflows to +inf
        clients[2].loss = QuadraticLoss([1.9, -1.92, 0.0, 0.0], [1e308] * 4)
        with pytest.raises(DivergenceError, match="^client 2 cannot start:"):
            run_qupel(clients, self.qupel_hp(lambda_p=0.5))
        assert steps == []


class TestRunLocalOnly:
    def test_empty_clients(self):
        assert run_local_only([], HyperParams(eta1=0.1, eta2=0.1, steps=3,
                                              quant_cfg=hard_cfg())) == []

    def test_clients_independent(self):
        clients = [make_client(i) for i in range(3)]
        hp = HyperParams(eta1=0.05, eta2=0.02, steps=40, quant_cfg=hard_cfg(),
                         lambda_schedule=LambdaSchedule.constant(0.05))
        base = run_local_only(clients, hp)
        perturbed = [make_client(0, target_shift=2.0)] + clients[1:]
        alt = run_local_only(perturbed, hp)
        assert not results_identical(base[0], alt[0])
        assert all(results_identical(b, a) for b, a in zip(base[1:], alt[1:]))

    def test_first_client_to_diverge_in_step_order_raises(self):
        # eta1 * h > 2 makes the iterates grow: 1.5x a step on client 0, 9x on client 2
        clients = [ClientState(id=i, x=np.full(2, 0.5), centers=[centers(-1.0, 1.0)],
                               w_local=np.full(2, 0.5), loss=QuadraticLoss([0.0, 0.0], [h, h]))
                   for i, h in enumerate([2.5, 1.0, 10.0])]
        hp = HyperParams(eta1=1.0, eta2=0.0, steps=200, quant_cfg=hard_cfg())
        with pytest.raises(DivergenceError, match="^client 0 objective diverged at step 19:"):
            run_local_only(clients[:1], hp)
        with pytest.raises(DivergenceError, match="^client 2 objective diverged at step 3:"):
            run_local_only(clients, hp)


class TestCenterCrossingReports:
    """Each run logs its own center crossings once: the total and the clients that crossed.

    A large constant lambda with eta2 = 0.5 pushes the centers of ``clustered_quadratic(1,
    4)`` past each other 24 times in 50 hard steps."""

    @staticmethod
    def crossing_hp(**changes):
        return HyperParams(eta1=0.1, eta2=0.5, steps=50, quant_cfg=hard_cfg(),
                           lambda_schedule=LambdaSchedule.constant(5.0), **changes)

    @staticmethod
    def crossing_client(cid, seed=1):
        loss, x0, c0 = clustered_quadratic(seed, 4)
        return ClientState(id=cid, x=x0, centers=[c0], w_local=x0.copy(), loss=loss)

    def test_every_run_in_one_process_reports_its_own(self, caplog):
        loss, x0, c0 = clustered_quadratic(1, 4)
        reports = []
        for _ in range(2):
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                run_centralized(loss, x0, [c0], self.crossing_hp())
            reports.append(crossing_reports(caplog.records))
        assert reports == [[(24, [0])], [(24, [0])]]

    def test_a_diverging_run_reports_before_it_raises(self, caplog):
        loss, x0, c0 = clustered_quadratic(1, 4)
        with caplog.at_level(logging.WARNING), \
                pytest.raises(DivergenceError, match="^client 0 objective diverged at step 7:"):
            run_centralized(loss, x0, [c0], self.crossing_hp(divergence_factor=30.0))
        assert crossing_reports(caplog.records) == [(2, [0])]

    def test_local_only_reports_the_sum_and_every_client(self, caplog):
        clients = [self.crossing_client(5, seed=1), self.crossing_client(3, seed=2)]
        solo = []
        for cs in clients:
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                run_local_only([cs], self.crossing_hp())
            [(count, ids)] = crossing_reports(caplog.records)
            assert count > 0 and ids == [cs.id]
            solo.append(count)
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            run_local_only(clients, self.crossing_hp())
        assert crossing_reports(caplog.records) == [(sum(solo), [3, 5])]

    def test_client_local_step_reports_each_call(self, caplog):
        cs, hp = self.crossing_client(7), self.crossing_hp()
        per_call = []
        for t in range(hp.steps):
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                cs = client_local_step(cs, hp, t)
            per_call.append(crossing_reports(caplog.records))
        assert all(reports in ([], [(1, [7])]) for reports in per_call)
        assert sum(len(reports) for reports in per_call) == 24  # the run's total


class TestRunFedavg:
    def test_single_client_is_gradient_descent(self):
        cs = make_client(0)
        hp = HyperParams(eta1=0.1, eta2=0.0, steps=30, tau=5, quant_cfg=hard_cfg())
        res = run_fedavg([cs], hp)
        w = cs.w_local.copy()
        for _ in range(30):
            w = w - 0.1 * cs.loss.gradient(w)
        np.testing.assert_array_equal(res.x_final, w)

    def test_converges_to_mean_of_targets(self):
        targets = [np.array([1.0, -1.0]), np.array([0.0, 2.0]), np.array([-1.0, 0.5])]
        clients = [
            ClientState(id=i, x=np.zeros(2), centers=[centers(0.0)], w_local=np.zeros(2),
                        loss=QuadraticLoss(t, [1.0, 1.0]))
            for i, t in enumerate(targets)
        ]
        hp = HyperParams(eta1=0.2, eta2=0.0, steps=400, tau=1, quant_cfg=hard_cfg())
        res = run_fedavg(clients, hp)
        np.testing.assert_allclose(res.x_final, np.mean(targets, axis=0), atol=1e-6)

    def test_identical_data_matches_centralized_descent(self):
        base = make_client(0, seed=9)
        clients = [
            ClientState(id=i, x=base.x.copy(), centers=base.centers,
                        w_local=base.w_local.copy(), loss=base.loss)
            for i in range(3)
        ]
        hp = HyperParams(eta1=0.1, eta2=0.0, steps=25, tau=5, quant_cfg=hard_cfg())
        res = run_fedavg(clients, hp)
        w = base.w_local.copy()
        for _ in range(25):
            w = w - 0.1 * base.loss.gradient(w)
        np.testing.assert_allclose(res.x_final, w, atol=1e-12)

    @staticmethod
    def target_clients(curvature=1.0):
        return [ClientState(id=i, x=np.zeros(2), centers=[centers(0.0)], w_local=np.zeros(2),
                            loss=QuadraticLoss([1.0 + i, -1.0], [curvature, curvature]))
                for i in range(3)]

    def test_nonfinite_step_raises_naming_the_client(self):
        # each step multiplies w by about -1e10, so the gradient step overflows at step 30
        hp = HyperParams(eta1=1e10, eta2=0.0, steps=60, tau=5, metrics_every=50,
                         divergence_factor=1e300, quant_cfg=hard_cfg())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="^client 0 diverged at step 30:"):
                run_fedavg(self.target_clients(), hp)

    def test_objective_past_the_threshold_raises(self):
        # eta1 * h = 3 doubles each |w - target| per step: F passes 1e6 * F_0 at step 10
        hp = HyperParams(eta1=3.0, eta2=0.0, steps=30, tau=5, quant_cfg=hard_cfg())
        with pytest.raises(DivergenceError, match="^fedavg objective diverged at step 10: "):
            run_fedavg(self.target_clients(), hp)
        res = run_fedavg(self.target_clients(), replace(hp, divergence_factor=1e300))
        assert len(res.history) == 30 and res.history[-1]["F_total"] > 1e18

    def test_nonfinite_start_cannot_start(self):
        hp = HyperParams(eta1=0.1, eta2=0.0, steps=5, quant_cfg=hard_cfg())
        with pytest.raises(DivergenceError, match="^fedavg cannot start: "):
            run_fedavg(self.target_clients(curvature=1e308), hp)


class TestEstimateDiversity:
    def test_equal_models_zero(self):
        clients = [make_client(i) for i in range(3)]
        x = np.full(4, 0.3)
        for c in clients:
            c.x = x.copy()
        kappa_i = estimate_diversity(clients, np.zeros(4), lambda_p=1.5)
        assert np.array_equal(kappa_i, np.zeros(3))
        assert np.mean(kappa_i) == 0.0

    def test_hand_example(self):
        c1 = ClientState(id=0, x=np.array([1.0]), centers=[centers(0.0)],
                         w_local=np.zeros(1), loss=QuadraticLoss([0.0], [1.0]))
        c2 = ClientState(id=1, x=np.array([-1.0]), centers=[centers(0.0)],
                         w_local=np.zeros(1), loss=QuadraticLoss([0.0], [1.0]))
        kappa_i = estimate_diversity([c1, c2], np.zeros(1), lambda_p=1.0)
        np.testing.assert_allclose(kappa_i, [1.0, 1.0], atol=1e-15)
        assert np.mean(kappa_i) == pytest.approx(1.0, abs=1e-15)

    def test_scales_quadratically_in_lambda_p(self):
        clients = [make_client(i) for i in range(3)]
        k1 = estimate_diversity(clients, np.zeros(4), lambda_p=1.0)
        k2 = estimate_diversity(clients, np.zeros(4), lambda_p=3.0)
        assert np.mean(k2) == pytest.approx(9.0 * np.mean(k1), rel=1e-12)


class TestPerClientSufficientDecrease:
    def test_small_coupling_decrease_bound(self):
        # with safe steps and small lambda_p, each local step decreases the
        # client objective up to the (lambda_p/2)*||w_i - mean w||^2 slack
        from qupel.centralized import safe_step_sizes
        from qupel.losses import eval_F_i_grouped
        from qupel.rng import Rng as _Rng

        lam, lam_p, tau = 0.1, 0.05, 2
        clients = []
        for i in range(3):
            rng = _Rng(400 + i)
            clusters = np.sort(rng.uniform(-1.0, 1.0, 2))
            clusters[1] = max(clusters[1], clusters[0] + 0.5)
            a = np.array([clusters[rng.randint(2)] + 0.02 * rng.random() for _ in range(6)])
            h = rng.uniform(0.5, 2.0, 6)
            x0 = a + rng.uniform(-0.1, 0.1, 6)
            vals = np.sort(clusters + rng.uniform(-0.05, 0.05, 2))
            clients.append(ClientState(id=i, x=x0, centers=[CenterVector(vals, c_max=3.0)],
                                       w_local=x0.copy(), loss=QuadraticLoss(a, h)))
        e1, e2 = safe_step_sizes(clients[0].loss, clients[0].x, clients[0].centers,
                                 cfg=hard_cfg(), lambda_p=lam_p)
        hp = HyperParams(eta1=e1, eta2=e2, steps=120, tau=tau, eta3=0.2, lambda_p=lam_p,
                         quant_cfg=hard_cfg(), lambda_schedule=LambdaSchedule.constant(lam))
        for t in range(hp.steps):
            if t % tau == 0:
                clients, _ = sync_round(clients)
            w_mean = np.mean(np.stack([c.w_local for c in clients]), axis=0)
            new_clients = []
            for cs in clients:
                before = eval_F_i_grouped(cs.loss, cs.x, cs.centers, cs.layout,
                                          w_mean, hp.quant_cfg, lam, lam_p).total
                slack = 0.5 * lam_p * float(np.sum((cs.w_local - w_mean) ** 2))
                stepped = client_local_step(cs, hp, t)
                after = eval_F_i_grouped(stepped.loss, stepped.x, stepped.centers,
                                         stepped.layout, w_mean, hp.quant_cfg, lam, lam_p).total
                # the center prox linearizes the regularizer around the old
                # centers; allow its error bound lam * sum_j n_j |dc_j|
                from qupel.quantizer import quantize_assignments

                assign = quantize_assignments(stepped.x, cs.centers[0])
                counts = np.bincount(assign, minlength=cs.centers[0].m)
                dc = np.abs(stepped.centers[0].values - cs.centers[0].values)
                surrogate_err = lam * float(np.sum(counts * dc))
                assert after <= before + slack + surrogate_err + 1e-10, \
                    f"client {cs.id} step {t}"
                new_clients.append(stepped)
            clients = new_clients


class TestConsensusContraction:
    def test_halving_eta3_reduces_drift(self):
        # no quantization, convex quadratic clients
        def drift(eta3, seed=0):
            clients = [make_client(i, seed=200 + seed * 10 + i) for i in range(4)]
            hp = HyperParams(eta1=0.05, eta2=0.0, steps=80, tau=8, eta3=eta3,
                             lambda_p=1.0, quant_cfg=hard_cfg())
            fed = run_qupel(clients, hp)
            return float(np.mean([rec["consensus_drift"] for rec in fed.global_history]))

        assert drift(0.25) < drift(0.5)
