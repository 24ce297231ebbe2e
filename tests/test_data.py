import numpy as np
import pytest

from qupel.data import (
    Dataset,
    export_partition_json,
    load_csv,
    make_blobs,
    partition_noniid,
)
from qupel.experiments import BlobTask, build_clients
from qupel.losses import LogisticLoss


class TestMakeBlobs:
    def test_balanced_counts(self):
        train, test = make_blobs(n_classes=3, dim=2, per_class=10, spread=0.3, seed=1)
        assert train.n + test.n == 30
        all_labels = np.concatenate([train.labels, test.labels])
        assert [int(np.sum(all_labels == k)) for k in range(3)] == [10, 10, 10]

    def test_deterministic(self):
        a_train, a_test = make_blobs(4, 3, 20, 0.5, seed=9)
        b_train, b_test = make_blobs(4, 3, 20, 0.5, seed=9)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.features, b_test.features)
        assert np.array_equal(a_train.labels, b_train.labels)

    def test_seed_changes_data(self):
        a, _ = make_blobs(4, 3, 20, 0.5, seed=9)
        b, _ = make_blobs(4, 3, 20, 0.5, seed=10)
        assert not np.array_equal(a.features, b.features)

    def test_tiny_spread_linearly_separable(self):
        train, _ = make_blobs(n_classes=2, dim=4, per_class=25, spread=1e-6, seed=3)
        y = np.where(train.labels == 1, 1.0, -1.0)
        loss = LogisticLoss(train.features, y, l2=0.0, class_labels=(0, 1))
        x = np.zeros(4)
        for _ in range(500):
            x = x - 0.5 * loss.gradient(x)
        assert np.mean(loss.predict(x, train.features) == train.labels) == 1.0

    def test_rejects_degenerate_spread(self):
        with pytest.raises(ValueError):
            make_blobs(3, 2, 10, 0.0, seed=1)

    def test_always_holds_out_a_test_split(self):
        with pytest.raises(ValueError, match="per_class must be >= 5"):
            make_blobs(3, 2, 4, 0.5, seed=1)
        train, test = make_blobs(3, 2, 5, 0.5, seed=1)
        assert (train.n, test.n) == (12, 3)
        assert train.n_classes == test.n_classes == 3


class TestPartitionNonIid:
    def test_label_sets_and_disjointness(self):
        train, _ = make_blobs(10, 4, 50, 0.4, seed=2)
        part = partition_noniid(train, n_clients=2, k=4, seed=7)
        seen = set()
        for idx, classes in zip(part.client_indices, part.assigned_classes):
            labels = set(train.labels[idx].tolist())
            assert labels == set(int(c) for c in classes)
            assert len(classes) == 4
            assert not (seen & set(idx.tolist()))
            seen |= set(idx.tolist())

    def test_equal_sizes(self):
        train, _ = make_blobs(10, 4, 50, 0.4, seed=2)
        part = partition_noniid(train, n_clients=5, k=4, seed=3)
        sizes = {idx.size for idx in part.client_indices}
        assert len(sizes) == 1

    def test_k_equals_n_classes(self):
        train, _ = make_blobs(4, 3, 40, 0.4, seed=5)
        part = partition_noniid(train, n_clients=3, k=4, seed=1)
        for classes in part.assigned_classes:
            assert len(classes) == 4

    def test_deterministic(self):
        train, _ = make_blobs(6, 3, 30, 0.4, seed=4)
        p1 = partition_noniid(train, 4, 3, seed=11)
        p2 = partition_noniid(train, 4, 3, seed=11)
        assert all(np.array_equal(a, b) for a, b in zip(p1.client_indices, p2.client_indices))

    def test_infeasible_reports_limiting_class(self):
        # 2 samples of each class, 8 clients each wanting 2 classes
        feats = np.arange(12, dtype=float).reshape(12, 1)
        labels = np.repeat(np.arange(6), 2)
        ds = Dataset(feats, labels)
        with pytest.raises(ValueError, match="class"):
            partition_noniid(ds, n_clients=8, k=2, seed=0)

    def test_filter_test_indices(self):
        # build_clients filters the test split to each client's assigned classes
        train, test = make_blobs(6, 3, 30, 0.4, seed=4)
        part = partition_noniid(train, 3, 2, seed=8)
        clients = build_clients(BlobTask(train=train, test=test), part, m_list=[4] * 3,
                                seed=4, model="mlp", hidden=3)
        for c, classes in zip(clients, part.assigned_classes):
            assert set(c.test.labels.tolist()) <= set(int(k) for k in classes)

    def test_heterogeneity_dial(self):
        # smaller k gives smaller average pairwise label-set overlap, on average
        train, _ = make_blobs(10, 2, 30, 0.4, seed=6)

        def mean_overlap(k):
            tot = 0.0
            for seed in range(100):
                part = partition_noniid(train, 4, k, seed=seed)
                sets = [set(int(c) for c in a) for a in part.assigned_classes]
                pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
                tot += np.mean([len(sets[i] & sets[j]) for i, j in pairs])
            return tot / 100

        overlaps = [mean_overlap(k) for k in (2, 4, 6, 8)]
        assert all(a < b for a, b in zip(overlaps, overlaps[1:]))

    def test_export_json(self, tmp_path):
        import json

        train, _ = make_blobs(5, 2, 20, 0.4, seed=4)
        part = partition_noniid(train, 3, 2, seed=5)
        path = tmp_path / "part.json"
        export_partition_json(part, path)
        payload = json.loads(path.read_text())
        assert payload["seed"] == 5 and payload["k"] == 2
        assert len(payload["indices"]) == 3


class TestCsv:
    def test_round_trip(self, tmp_path):
        train, _ = make_blobs(3, 4, 10, 0.7, seed=12)
        path = tmp_path / "ds.csv"
        rows = [",".join(f"{v:.17g}" for v in row) + f",{lab}"
                for row, lab in zip(train.features, train.labels)]
        path.write_text("\n".join(["f0,f1,f2,f3,label", *rows]) + "\n")
        back = load_csv(path)
        np.testing.assert_allclose(back.features, train.features, atol=1e-12, rtol=0)
        assert np.array_equal(back.labels, train.labels)

    def test_two_row_file(self, tmp_path):
        path = tmp_path / "mini.csv"
        path.write_text("f0,f1,label\n0.5,1.5,0\n-0.25,2.0,1\n")
        ds = load_csv(path)
        assert ds.n == 2
        assert ds.features.shape == (2, 2)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n0.5,0\nfoo,1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path)

    def test_column_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n0.5,1.0,0\n0.5,1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(path)

    def test_label_remapping(self, tmp_path):
        path = tmp_path / "remap.csv"
        path.write_text("f0,label\n0.1,7\n0.2,3\n0.3,7\n")
        ds = load_csv(path)
        assert ds.label_values == (3, 7)
        assert ds.labels.tolist() == [1, 0, 1]


class TestDatasetValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.nan]]), np.array([0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
