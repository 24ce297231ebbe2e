import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from qupel import experiments
from qupel.centralized import (
    HyperParams,
    LambdaSchedule,
    init_centers_from_weights,
    init_weights,
    run_centralized,
)
from qupel.cli import main
from qupel.data import Dataset, partition_noniid
from qupel.experiments import (
    avg_quantized_accuracy,
    build_blob_task,
    build_clients,
    mixed_precision_m,
    run_mode,
)
from qupel.federated import run_fedavg, run_local_only, run_qupel
from qupel.losses import LogisticLoss
from qupel.rng import Rng

from helpers import hard_cfg


class TestMixedPrecisionPresets:
    def test_named_cases_for_twenty_clients(self):
        # 2.75 bits: fifteen clients at 3 bits (m=8), five at 2 bits (m=4)
        assert mixed_precision_m("2.75bits", 20) == [8] * 15 + [4] * 5
        assert mixed_precision_m("2.5bits", 20) == [8] * 10 + [4] * 10
        assert mixed_precision_m("2.25bits", 20) == [8] * 5 + [4] * 15
        assert mixed_precision_m("3bits", 20) == [8] * 20
        assert mixed_precision_m("2bits", 20) == [4] * 20

    def test_average_bits(self):
        ms = mixed_precision_m("2.5bits", 20)
        assert np.mean(np.log2(ms)) == pytest.approx(2.5)

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            mixed_precision_m("1bit", 20)


class TestBuildClients:
    def test_shapes_and_determinism(self):
        task = build_blob_task(n_classes=4, dim=4, per_class=30, spread=0.5, seed=2)
        a = build_clients(task, partition_noniid(task.train, 3, 2, 2),
                          m_list=[4, 4, 8], seed=2, model="mlp", hidden=6)
        b = build_clients(task, partition_noniid(task.train, 3, 2, 2),
                          m_list=[4, 4, 8], seed=2, model="mlp", hidden=6)
        assert [tuple(cv.m for cv in c.centers) for c in a] == [(4, 4), (4, 4), (8, 8)]
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.x, cb.x)
            assert np.array_equal(ca.test.features, cb.test.features)

    def test_common_init_across_clients(self, monkeypatch):
        made = []

        def counting(x_group, m, c_max):
            made.append(m)
            return init_centers_from_weights(x_group, m, c_max=c_max)

        monkeypatch.setattr(experiments, "init_centers_from_weights", counting)
        for blobs, n_clients, m_list, calls in [
            (dict(n_classes=4, dim=4, per_class=30), 3, [4] * 3, 2),
            # 100 clients at 2.75 bits as in qupel-100c-mixed: 75 at m=8, 25 at m=4
            (dict(n_classes=10, dim=8, per_class=50), 100, mixed_precision_m("2.75bits", 100), 4),
        ]:
            made.clear()
            task = build_blob_task(spread=0.5, seed=3, **blobs)
            clients = build_clients(task, partition_noniid(task.train, n_clients, 2, 3),
                                    m_list=m_list, seed=3, model="mlp", hidden=6)
            assert len(made) == calls  # once per (group, distinct m), not per client
            x0 = init_weights(clients[0].loss.dim, Rng(3).spawn(1))
            for c, m in zip(clients, m_list):
                assert c.x.tobytes() == c.w_local.tobytes() == x0.tobytes()
                want = [init_centers_from_weights(x0[s:e], m, c_max=3.0)
                        for s, e in c.layout.groups]
                assert [cv.values.tobytes() for cv in c.centers] == \
                    [cv.values.tobytes() for cv in want]

    def test_blob_task_without_a_test_split_is_refused(self):
        # per_class=4 holds out no test rows, which every client consumer needs
        with pytest.raises(ValueError, match="per_class must be >= 5"):
            build_blob_task(n_classes=3, dim=2, per_class=4, spread=0.5, seed=1)

    def test_m_list_length_validated(self):
        task = build_blob_task(n_classes=4, dim=4, per_class=30, spread=0.5, seed=2)
        with pytest.raises(ValueError):
            build_clients(task, partition_noniid(task.train, 3, 2, 2), m_list=[4, 4], seed=2)

    def test_client_tests_filtered_to_assigned_classes(self):
        task = build_blob_task(n_classes=6, dim=3, per_class=30, spread=0.5, seed=4)
        part = partition_noniid(task.train, 4, 2, 4)
        clients = build_clients(task, part, m_list=[4] * 4, seed=4, model="mlp", hidden=6)
        for c, classes in zip(clients, part.assigned_classes):
            assert len(set(c.test.labels.tolist())) <= 2
            assert set(c.test.labels.tolist()) <= set(int(k) for k in classes)

    def test_clients_with_one_class_set_share_one_test_split(self):
        # 300 clients holding 4 of 10 classes: at most C(10, 4) = 210 splits, one per set
        task = build_blob_task(n_classes=10, dim=2, per_class=1500, spread=0.4, seed=4)
        part = partition_noniid(task.train, 300, 4, seed=4)
        clients = build_clients(task, part, m_list=[4] * 300, seed=4, model="mlp", hidden=3)
        by_set = {}
        for c, classes in zip(clients, part.assigned_classes):
            by_set.setdefault(tuple(classes.tolist()), []).append(c.test)
        assert len(by_set) < 300
        for tests in by_set.values():
            assert all(t is tests[0] for t in tests)
        assert len({id(tests[0]) for tests in by_set.values()}) == len(by_set) <= 210

    @staticmethod
    def uneven_task():
        """A CSV-style task: labels out of order, uneven class sizes, original label values."""
        rng = Rng(9)
        train_labels = np.array([2, 0, 1, 2, 2, 0, 1, 2, 0, 2, 1, 2, 0, 2, 1, 2, 0, 1, 2, 2])
        test_labels = np.array([1, 2, 2, 0, 2, 1, 2, 2, 0, 2, 2])
        return experiments.BlobTask(
            train=Dataset(rng.normal(40).reshape(20, 2), train_labels, label_values=(3, 7, 9)),
            test=Dataset(rng.normal(22).reshape(11, 2), test_labels, label_values=(3, 7, 9)))

    @pytest.mark.parametrize("kind", ["blobs", "csv"])
    def test_each_test_split_is_the_per_client_filter(self, kind):
        if kind == "blobs":
            task = build_blob_task(n_classes=6, dim=3, per_class=60, spread=0.4, seed=5)
            part, m_list = partition_noniid(task.train, 12, 3, seed=5), [4] * 12
        else:
            task = self.uneven_task()
            part, m_list = partition_noniid(task.train, 4, 2, seed=1), [2] * 4
        clients = build_clients(task, part, m_list=m_list, seed=5, model="mlp", hidden=3)
        for c, classes in zip(clients, part.assigned_classes):
            want = task.test.take(np.flatnonzero(np.isin(task.test.labels, classes)))
            assert c.test.features.tobytes() == want.features.tobytes()
            assert c.test.labels.tobytes() == want.labels.tobytes()
            assert c.test.label_values == task.test.label_values


class TestIidSanity:
    def test_fedavg_at_least_local_when_homogeneous(self):
        # every client holds all classes: a single global model suffices,
        # and pooling beats training on small local shards (within noise)
        task = build_blob_task(n_classes=4, dim=4, per_class=40, spread=0.6, seed=6)
        clients = build_clients(task, partition_noniid(task.train, 4, 4, 6),
                                m_list=[4] * 4, seed=6, model="mlp", hidden=8)
        hp = HyperParams(eta1=0.1, eta2=0.005, steps=300, tau=5, quant_cfg=hard_cfg(),
                         lambda_schedule=LambdaSchedule.linear(1e-4, cap=0.05),
                         fine_tune_start=240, metrics_every=150)
        rows_f, _ = run_mode("fedavg", clients, hp)
        rows_l, _ = run_mode("local", clients, hp)
        assert avg_quantized_accuracy(rows_f) >= avg_quantized_accuracy(rows_l) - 0.05


class TestMinibatchMode:
    def test_deterministic_and_trains(self):
        rng = Rng(12)
        n, d = 60, 5
        feats = rng.normal(n * d).reshape(n, d)
        labels = np.where(feats[:, 0] + 0.3 * feats[:, 1] > 0, 1.0, -1.0)
        loss = LogisticLoss(feats, labels, l2=1e-3)
        from qupel.centralized import init_centers_from_weights, init_weights

        x0 = init_weights(d, Rng(3))
        c0 = init_centers_from_weights(x0, 2, c_max=3.0)
        hp = HyperParams(eta1=0.3, eta2=0.01, steps=200, quant_cfg=hard_cfg(),
                         lambda_schedule=LambdaSchedule.linear(1e-4, cap=0.05),
                         batch_size=16, metrics_every=100)
        r1 = run_centralized(loss, x0, [c0], hp, rng=Rng(41))
        r2 = run_centralized(loss, x0, [c0], hp, rng=Rng(41))
        r3 = run_centralized(loss, x0, [c0], hp, rng=Rng(42))
        assert np.array_equal(r1.x_final, r2.x_final)
        assert not np.array_equal(r1.x_final, r3.x_final)
        assert loss.value(r1.x_final) < loss.value(x0)

    def test_requires_rng(self):
        loss = LogisticLoss(np.ones((4, 2)), np.array([1.0, -1.0, 1.0, -1.0]))
        hp = HyperParams(eta1=0.1, eta2=0.0, steps=2, quant_cfg=hard_cfg(), batch_size=2)
        from qupel.centralized import init_centers_from_weights

        c0 = init_centers_from_weights(np.array([0.1, -0.1]), 2, c_max=3.0)
        with pytest.raises(ValueError):
            run_centralized(loss, np.zeros(2), [c0], hp)


class TestMinibatchClients:
    TASK = dict(n_classes=4, dim=4, per_class=30, spread=0.5)
    CLIENTS = dict(n_clients=3, classes_per_client=2, m_list=[4] * 3, model="mlp", hidden=6)

    def clients(self, seed=5):
        task = build_blob_task(seed=seed, **self.TASK)
        kwargs = dict(self.CLIENTS)
        part = partition_noniid(task.train, kwargs.pop("n_clients"),
                                kwargs.pop("classes_per_client"), seed)
        return build_clients(task, part, seed=seed, **kwargs)

    def hp(self, lambda_p):
        return HyperParams(eta1=0.1, eta2=0.01, steps=30, tau=5, eta3=0.3, lambda_p=lambda_p,
                           quant_cfg=hard_cfg(), batch_size=8, metrics_every=10,
                           lambda_schedule=LambdaSchedule.linear(1e-3, cap=0.05))

    @pytest.mark.parametrize("train", [
        lambda cs, hp: run_centralized(cs[0].loss, cs[0].x, cs[0].centers, hp,
                                       layout=cs[0].layout, test=cs[0].test, rng=cs[0].data_rng),
        run_local_only, run_qupel, run_fedavg,
    ], ids=["centralized", "local", "qupel", "fedavg"])
    def test_runs_change_nothing_they_are_given(self, train):
        def state(clients):
            return [(c.data_rng.getstate(), c.x.tobytes(), c.w_local.tobytes(),
                     [cv.values.tobytes() for cv in c.centers]) for c in clients]

        clients = self.clients()
        before = state(clients)
        train(clients, self.hp(lambda_p=1.0))
        assert state(clients) == before

    def test_a_mode_leaves_its_population_as_a_fresh_one(self):
        task = build_blob_task(4, 3, 20, 0.6, 3)

        def population():
            return build_clients(task, partition_noniid(task.train, 3, 2, 3), m_list=[4] * 3,
                                 seed=3, model="mlp", hidden=6)

        hp = replace(self.hp(lambda_p=1.0), steps=5, batch_size=4, metrics_every=2)
        shared = population()
        run_mode("fedavg", shared, hp)
        assert run_mode("qupel", shared, hp) == run_mode("qupel", population(), hp)

    @pytest.mark.parametrize("mode", ["local", "qupel"])
    def test_run_mode_records_by_step_then_client(self, mode):
        c0, c1, c2 = self.clients()
        _, records = run_mode(mode, [c2, c0, c1], replace(self.hp(lambda_p=1.0), steps=4))
        assert [(rec["step"], rec["client_id"]) for rec in records] == \
            [(t, i) for t in range(4) for i in range(3)]

    def test_each_client_has_its_own_stream(self):
        states = {c.data_rng.getstate() for c in self.clients()}
        assert len(states) == 3

    def test_zero_coupling_matches_local_only_bitwise(self):
        hp = self.hp(lambda_p=0.0)
        fed = run_qupel(self.clients(), hp)
        loc = run_local_only(self.clients(), hp)
        for f, l in zip(fed.per_client, loc):
            assert np.array_equal(f.x_final, l.x_final)
            assert all(np.array_equal(a.values, b.values)
                       for a, b in zip(f.centers_final, l.centers_final))
            assert f.history == l.history
        full = run_local_only(self.clients(), replace(hp, batch_size=None))
        assert not np.array_equal(loc[0].x_final, full[0].x_final)

    def test_compare_records_independent_of_mode_order(self, tmp_path, capsys):
        # self.TASK, self.CLIENTS and self.hp(lambda_p=1.0) as a compare config
        cfg = {"seeds": [1, 2], "model": {"kind": "mlp", "hidden": 6},
               "dataset": {"kind": "blobs", "classes": 4, "dim": 4, "per_class": 30,
                           "spread": 0.5},
               "partition": {"clients": 3, "classes_per_client": 2},
               "quantization": {"m_list": [4] * 3, "hard_limit": True},
               "hyper": {"eta1": 0.1, "eta2": 0.01, "steps": 30, "tau": 5, "eta3": 0.3,
                         "lambda_p": 1.0, "batch_size": 8, "metrics_every": 10,
                         "lambda": {"kind": "linear", "base": 1e-3, "cap": 0.05}}}
        tables = []
        for modes in (["qupel", "local"], ["local", "qupel"]):
            out = tmp_path / "-".join(modes)
            path = tmp_path / f"{out.name}.json"
            path.write_text(json.dumps({**cfg, "modes": modes}))
            assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
            with open(out / "comparison.csv") as fh:
                tables.append(list(csv.DictReader(fh)))

        def key(r):
            return r["mode"], r["seed"]

        assert tables[0] != tables[1]  # the rows come in mode order
        assert sorted(tables[0], key=key) == sorted(tables[1], key=key)
