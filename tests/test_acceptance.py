"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Experiments are deterministic, so outcomes are stable across runs.
"""

import functools
import time

import numpy as np
import pytest

from qupel.centralized import (
    HyperParams,
    LambdaSchedule,
    init_centers_from_weights,
    init_weights,
    run_centralized,
    safe_step_sizes,
    stationarity_gap,
)
from qupel.data import Dataset, make_blobs, partition_noniid
from qupel.diagnostics import evaluate_accuracy, run_gradient_suite, run_prox_suite
from qupel.experiments import (
    avg_quantized_accuracy,
    build_blob_task,
    build_clients,
    run_mode,
)
from qupel.federated import ClientState, client_local_step, run_local_only, run_qupel
from qupel.losses import (
    LogisticLoss,
    MlpLoss,
    QuadraticLoss,
    QuantLayout,
    eval_F_i_grouped,
)
from qupel.quantizer import CenterVector
from qupel.rng import Rng

from helpers import clustered_quadratic, hard_cfg, results_identical


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {num}: {label}")
                raise
            print(f"\n[PASS] criterion {num}: {label}" + (f" ({detail})" if detail else ""))
        return wrapper
    return deco


@criterion(1, "gradient oracle suite, 1000 instances, rel err < 1e-5, < 30 s")
def test_criterion_1_gradient_oracle():
    rep = run_gradient_suite(n_instances=1000, tol=1e-5, seed=20240)
    assert rep.passed, f"max rel err {rep.max_err:.3e} at {rep.detail}"
    assert rep.elapsed_s < 30.0, f"took {rep.elapsed_s:.1f}s"
    return f"max rel err {rep.max_err:.2e}, {rep.elapsed_s:.1f}s"


@criterion(2, "prox oracle, 1000 instances within 2e-4, exact large-lambda collapse, < 30 s")
def test_criterion_2_prox_oracle():
    rep = run_prox_suite(n_instances=1000, seed=77, grid_step=1e-4)
    assert rep.passed, f"max deviation {rep.max_err:.3e} at {rep.detail}"
    assert rep.elapsed_s < 30.0, f"took {rep.elapsed_s:.1f}s"
    return f"max deviation {rep.max_err:.2e}, {rep.elapsed_s:.1f}s"


@criterion(3, "centralized convergence on the quadratic suite "
              "(monotone, sufficient decrease, gap < 1e-6, 1/T rate), < 60 s")
def test_criterion_3_centralized_convergence():
    started = time.perf_counter()
    lam = 0.2
    worst_gap = 0.0
    worst_rate = 0.0
    for seed in (1, 2, 3):
        for m in (2, 4):
            loss, x0, c0 = clustered_quadratic(seed, m)
            layout = QuantLayout.full(loss.dim)
            cfg = hard_cfg()
            e1, e2 = safe_step_sizes(loss, x0, [c0], cfg=cfg)
            hp = HyperParams(eta1=e1, eta2=e2, steps=10_000, quant_cfg=cfg,
                             lambda_schedule=LambdaSchedule.constant(lam))
            lx_hat = 1.0 / (2.0 * e1)
            x, cs = x0, [c0]
            client = ClientState(id=0, x=x, centers=cs, w_local=x, loss=loss, layout=layout)
            gaps = np.empty(hp.steps)
            f_prev = eval_F_i_grouped(loss, x, cs, layout, x, cfg, lam, 0.0).total
            for t in range(hp.steps):
                client = client_local_step(client, hp, t)  # lambda_p = 0: the centralized step
                x_new, cs_new = client.x, client.centers
                f_mid = eval_F_i_grouped(loss, x_new, cs, layout, x_new, cfg, lam, 0.0).total
                dx = float(np.sum((x_new - x) ** 2))
                # per-step sufficient decrease in the weights
                assert f_mid + 0.5 * lx_hat * dx <= f_prev + 1e-10, \
                    f"seed={seed} m={m} t={t}: sufficient decrease violated"
                f_new = eval_F_i_grouped(loss, x_new, cs_new, layout, x_new, cfg, lam, 0.0).total
                # monotone decrease of the full objective
                assert f_new <= f_prev + 1e-10, \
                    f"seed={seed} m={m} t={t}: objective increased {f_prev} -> {f_new}"
                gaps[t] = stationarity_gap(x, x_new, cs, cs_new, hp)
                x, cs, f_prev = x_new, cs_new, f_new
            assert gaps[-1] < 1e-6, f"seed={seed} m={m}: final gap {gaps[-1]:.3e}"
            worst_gap = max(worst_gap, gaps[-1])
            avg = np.cumsum(gaps) / np.arange(1, gaps.size + 1)
            for T in (250, 500, 1000):
                ratio = avg[2 * T - 1] / avg[T - 1]
                assert ratio <= 0.75, f"seed={seed} m={m} T={T}: rate ratio {ratio:.3f}"
                worst_rate = max(worst_rate, ratio)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    return f"worst final gap {worst_gap:.2e}, worst rate ratio {worst_rate:.2f}, {elapsed:.0f}s"


def _scaled_binary_task(seed, per_class=200, d=12, spread=1.1):
    train, test = make_blobs(2, d, per_class, spread, seed=seed)
    scales = np.exp(Rng(seed).spawn(3).uniform(-1.2, 1.2, d))

    def with_bias(ds):
        feats = np.hstack([ds.features * scales, np.ones((ds.n, 1))])
        return Dataset(feats, ds.labels)

    return with_bias(train), with_bias(test)


@criterion(4, "learned centers beat frozen centers (logistic, m=2) in >= 8/10 seeds")
def test_criterion_4_center_learning_gain():
    wins = 0
    diffs = []
    for seed in range(1, 11):
        train, test = _scaled_binary_task(seed)
        y = np.where(train.labels == 1, 1.0, -1.0)
        loss = LogisticLoss(train.features, y, l2=1e-3, class_labels=(0, 1))
        x0 = init_weights(loss.dim, Rng(seed).spawn(2))
        c0 = init_centers_from_weights(x0, 2, c_max=3.0)
        base = dict(eta1=0.5, steps=400, quant_cfg=hard_cfg(),
                    lambda_schedule=LambdaSchedule.linear(1e-4, cap=0.05),
                    fine_tune_start=320, metrics_every=200)
        accs = {}
        for name, eta2 in (("learned", 0.05), ("frozen", 0.0)):
            res = run_centralized(loss, x0, [c0], HyperParams(eta2=eta2, **base))
            accs[name] = evaluate_accuracy(loss, res.x_hard, test)
        wins += accs["learned"] >= accs["frozen"]
        diffs.append(accs["learned"] - accs["frozen"])
    mean_gain = float(np.mean(diffs))
    assert wins >= 8, f"learned >= frozen in only {wins}/10 seeds"
    assert mean_gain > 0, f"mean improvement {mean_gain:+.4f}"
    return f"{wins}/10 wins, mean gain {mean_gain:+.4f}"


def _quad_client(cid, seed, d=4, m=2):
    rng = Rng(seed)
    a = rng.uniform(-1, 1, d)
    h = rng.uniform(0.5, 2.0, d)
    x0 = rng.uniform(-0.5, 0.5, d)
    vals = np.sort(rng.uniform(-1, 1, m))
    for j in range(1, m):
        vals[j] = max(vals[j], vals[j - 1] + 0.3)
    return ClientState(id=cid, x=x0, centers=[CenterVector(vals, c_max=10.0)],
                       w_local=x0.copy(), loss=QuadraticLoss(a, h))


@criterion(5, "federated decoupling, symmetry and post-sync equality are exact")
def test_criterion_5_decoupling_and_symmetry():
    base_hp = dict(eta1=0.05, eta2=0.02, steps=60, tau=5, quant_cfg=hard_cfg(),
                   lambda_schedule=LambdaSchedule.linear(1e-3, cap=0.2))
    # decoupling: lambda_p = 0 makes the protocol equal independent runs
    clients = [_quad_client(i, seed=100 + i) for i in range(4)]
    hp0 = HyperParams(lambda_p=0.0, eta3=0.2, **base_hp)
    fed = run_qupel(clients, hp0)
    loc = run_local_only(clients, hp0)
    assert all(results_identical(f, l) for f, l in zip(fed.per_client, loc)), \
        "qupel with lambda_p=0 differs from local-only"
    # identical clients stay identical under every-step syncing
    proto = _quad_client(0, seed=55)
    clones = [ClientState(id=i, x=proto.x.copy(), centers=proto.centers,
                          w_local=proto.w_local.copy(), loss=proto.loss) for i in range(3)]
    hp1 = HyperParams(lambda_p=0.7, eta3=0.3, **{**base_hp, "tau": 1})
    fed1 = run_qupel(clones, hp1)
    ref = fed1.per_client[0]
    for r in fed1.per_client[1:]:
        assert np.array_equal(r.x_final, ref.x_final)
        for ma, mb in zip(r.history, ref.history):
            assert (ma["F_total"], ma["stationarity_gap"]) == (
                mb["F_total"], mb["stationarity_gap"])
    # post-sync equality at every synchronization
    hp2 = HyperParams(lambda_p=0.5, eta3=0.2, **base_hp)
    fed2 = run_qupel([_quad_client(i, seed=200 + i) for i in range(3)], hp2)
    synced = [rec for rec in fed2.global_history if rec["synced"]]
    assert synced and all(rec["post_sync_dev"] == 0.0 for rec in synced)
    return "bitwise on all three checks"


def test_zero_coupling_matches_local_only_with_fine_tune():
    hp = HyperParams(eta1=0.05, eta2=0.02, steps=60, tau=5, quant_cfg=hard_cfg(),
                     lambda_schedule=LambdaSchedule.linear(1e-3, cap=0.2),
                     lambda_p=0.0, eta3=0.2, fine_tune_start=48)
    clients = [_quad_client(i, seed=100 + i) for i in range(4)]
    fed = run_qupel(clients, hp)
    loc = run_local_only(clients, hp)
    for f, l in zip(fed.per_client, loc):
        assert np.array_equal(f.x_final, l.x_final)  # holds: only the recorded gap differs
    assert all(results_identical(f, l) for f, l in zip(fed.per_client, loc))


def _ordering_hp(steps=400):
    return HyperParams(eta1=0.1, eta2=0.005, steps=steps, tau=5, eta3=0.3, lambda_p=1.0,
                       lambda_schedule=LambdaSchedule.linear(1e-4, cap=0.05),
                       quant_cfg=hard_cfg(), fine_tune_start=int(steps * 0.8),
                       metrics_every=200)


@criterion(6, "protocol ordering qupel > local > fedavg in >= 4/5 seeds")
def test_criterion_6_table_ordering():
    hp = _ordering_hp()
    joint = 0
    gaps_ql, gaps_lf = [], []
    for seed in range(1, 6):
        task = build_blob_task(n_classes=10, dim=8, per_class=40, spread=0.65, seed=seed)
        clients = build_clients(task, partition_noniid(task.train, 10, 4, seed),
                                m_list=[4] * 10, seed=seed, model="mlp", hidden=12)
        accs = {}
        for mode in ("qupel", "local", "fedavg"):
            rows, _ = run_mode(mode, clients, hp)
            accs[mode] = avg_quantized_accuracy(rows)
        joint += accs["qupel"] > accs["local"] > accs["fedavg"]
        gaps_ql.append(accs["qupel"] - accs["local"])
        gaps_lf.append(accs["local"] - accs["fedavg"])
    assert joint >= 4, f"full ordering held in only {joint}/5 seeds"
    return (f"{joint}/5 seeds, mean gains qupel-local {np.mean(gaps_ql):+.3f}, "
            f"local-fedavg {np.mean(gaps_lf):+.3f}")


@criterion(7, "hard-quantized accuracy within 3 points of full precision (5-seed mean)")
def test_criterion_7_quantization_fidelity():
    gaps = []
    for seed in range(1, 6):
        task = build_blob_task(n_classes=10, dim=8, per_class=100, spread=0.4, seed=seed)
        loss = MlpLoss([8, 16, 10], task.train.features, task.train.labels)
        x0 = init_weights(loss.dim, Rng(seed).spawn(4))
        layout = QuantLayout.for_mlp(loss)
        centers = [init_centers_from_weights(x0[s:e], 8, c_max=3.0)
                   for s, e in layout.groups]
        hp_q = HyperParams(eta1=0.1, eta2=0.005, steps=600, quant_cfg=hard_cfg(),
                           lambda_schedule=LambdaSchedule.linear(1e-4, cap=0.05),
                           fine_tune_start=480, metrics_every=600)
        res_q = run_centralized(loss, x0, centers, hp_q, layout=layout)
        acc_q = evaluate_accuracy(loss, res_q.x_hard, task.test)
        hp_fp = HyperParams(eta1=0.1, eta2=0.0, steps=600, quant_cfg=hard_cfg(),
                            lambda_schedule=LambdaSchedule.constant(0.0), metrics_every=600)
        res_fp = run_centralized(loss, x0, [centers[0]], hp_fp)
        acc_fp = evaluate_accuracy(loss, res_fp.x_final, task.test)
        gaps.append(acc_fp - acc_q)
    mean_gap = float(np.mean(gaps))
    assert mean_gap < 0.03, f"mean accuracy cost of quantization {mean_gap:+.4f}"
    return f"mean fp-minus-quantized accuracy {mean_gap:+.4f}"


@criterion(8, "halving eta3 reduces the mean global-model drift (5-seed mean)")
def test_criterion_8_drift_contraction():
    def mean_drift(eta3, seed):
        clients = [_quad_client(i, seed=300 + 10 * seed + i, d=6) for i in range(5)]
        hp = HyperParams(eta1=0.05, eta2=0.0, steps=160, tau=8, eta3=eta3, lambda_p=1.0,
                         quant_cfg=hard_cfg())
        fed = run_qupel(clients, hp)
        return float(np.mean([rec["consensus_drift"] for rec in fed.global_history]))

    full = [mean_drift(0.5, s) for s in range(1, 6)]
    half = [mean_drift(0.25, s) for s in range(1, 6)]
    assert np.mean(half) < np.mean(full), \
        f"drift means: eta3/2 {np.mean(half):.3e} vs eta3 {np.mean(full):.3e}"
    return f"drift {np.mean(full):.2e} -> {np.mean(half):.2e} when eta3 halves"


@criterion(9, "2-bit control clients do at least as well with 2-bit-richer partners "
              "in >= 3/5 seeds")
def test_criterion_9_resource_heterogeneity():
    hp = _ordering_hp()
    wins = 0
    deltas = []
    for seed in range(1, 6):
        task = build_blob_task(n_classes=10, dim=8, per_class=40, spread=0.65, seed=seed)
        accs = {}
        for name, partner_m in (("rich", 4), ("poor", 2)):
            clients = build_clients(task, partition_noniid(task.train, 10, 4, seed),
                                    m_list=[2] * 5 + [partner_m] * 5, seed=seed,
                                    model="mlp", hidden=12)
            rows, _ = run_mode("qupel", clients, hp)
            control = [r["acc_quantized"] for r in rows if r["client_id"] < 5]
            accs[name] = float(np.mean(control))
        wins += accs["rich"] >= accs["poor"]
        deltas.append(accs["rich"] - accs["poor"])
    assert wins >= 3, f"richer partners helped in only {wins}/5 seeds"
    return f"{wins}/5 seeds, mean control-client gain {np.mean(deltas):+.4f}"
