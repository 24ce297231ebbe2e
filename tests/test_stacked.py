"""The stacked trainer against the per-client reference loop in ``tests/helpers.py``.

``federated._train`` steps every client with one call per operation on arrays of one
row per client; ``helpers.reference_train`` steps one client after another through the
one-client calls. Both must give the same records and arrays, bit for bit.
"""

import json
import logging
import os
import platform
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qupel import federated, losses, quantizer
from qupel.centralized import DivergenceError, HyperParams, LambdaSchedule
from qupel.data import partition_noniid
from qupel.experiments import build_blob_task, build_clients
from qupel.federated import ClientState
from qupel.losses import QuadraticLoss
from qupel.quantizer import QuantConfig, sigmoid
from qupel.rng import Rng

from helpers import assert_matches_reference, centers, crossing_reports, hard_cfg, reference_train

ROOT = Path(__file__).resolve().parents[1]


def mlp_clients(m_list, seed=3, l2=0.0):
    task = build_blob_task(n_classes=4, dim=3, per_class=12, spread=0.6, seed=seed)
    partition = partition_noniid(task.train, len(m_list), 2, seed)
    return build_clients(task, partition, m_list=m_list, seed=seed, hidden=4, l2=l2)


def quadratic_clients(n, d=5):
    clients = []
    for i in range(n):
        rng = Rng(40 + i)
        x0 = rng.uniform(-1, 1, d)
        loss = QuadraticLoss(rng.uniform(-1, 1, d), rng.uniform(0.5, 2, d))
        clients.append(ClientState(id=i, x=x0, centers=[centers(-0.6, 0.1, 0.7)],
                                   w_local=x0.copy(), loss=loss))
    return clients


def hyper(**changes):
    hp = HyperParams(eta1=0.1, eta2=0.02, steps=14, tau=3, eta3=0.3, lambda_p=1.0,
                     quant_cfg=hard_cfg(), lambda_schedule=LambdaSchedule.linear(5e-3, cap=0.05),
                     metrics_every=4)
    return replace(hp, **changes)


@pytest.mark.parametrize("fed", [True, False], ids=["federated", "local"])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_matches_reference_at_each_population_size(n, fed):
    assert_matches_reference(mlp_clients([4] * n), hyper(), fed)


SOFT = QuantConfig(sharpness=4.0, hard_limit=False)


@pytest.mark.parametrize("fed, cfg", [(True, hard_cfg()), (False, hard_cfg()), (True, SOFT),
                                      (False, SOFT)],
                         ids=["federated", "local", "soft-federated", "soft-local"])
def test_interleaved_precisions(fed, cfg):
    # rows of m = 1 and m = 2 sit between m = 8 rows: every pad stays out of every result,
    # and in soft mode every by_m block but the m = 8 one takes its rows by index
    clients = mlp_clients([8, 2, 4, 8, 1, 4, 2])
    assert_matches_reference(clients, hyper(fine_tune_start=10, quant_cfg=cfg), fed)


def test_soft_step_quantizes_each_group_once_whatever_the_population(monkeypatch):
    # one soft _train step (f0, the step's x and center gradients, its objective) evaluates
    # the same number of sigmoids for 2 clients as for 7: no pass loops over the rows
    counts = []
    for n in (2, 7):
        calls = []

        def counted(t):
            calls.append(t.shape[0])
            return sigmoid(t)

        monkeypatch.setattr(quantizer, "sigmoid", counted)
        federated._train(mlp_clients([4] * n), hyper(steps=1, quant_cfg=SOFT), federated=True)
        assert set(calls) == {n}
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("changes", [
    {"batch_size": 5}, {"fine_tune_start": 6}, {"fine_tune_start": 0}, {"eta2": 0.0},
    {"lambda_p": 0.0}, {"eta3": 0.0, "tau": 1},
    {"quant_cfg": SOFT}, {"quant_cfg": SOFT, "fine_tune_start": 8},
    {"quant_cfg": SOFT, "fine_tune_start": 0}, {"steps": 1}, {"quant_cfg": SOFT, "steps": 1},
], ids=["minibatch", "fine-tune", "fine-tune-at-start", "frozen-centers", "uncoupled",
        "w-frozen", "soft", "soft-fine-tune", "soft-fine-tune-at-start", "one-step",
        "soft-one-step"])
def test_matches_reference_per_option(changes):
    # the reference computes every step from scratch: a gradient carried into a step that
    # pins, or past the last step, would show here
    assert_matches_reference(mlp_clients([8, 4, 4, 2]), hyper(**changes))


def test_l2_and_minibatches_in_local_mode():
    assert_matches_reference(mlp_clients([4, 8, 4], l2=0.05), hyper(batch_size=7), fed=False)


@pytest.mark.parametrize("fed", [True, False], ids=["federated", "local"])
def test_quadratic_clients_call_each_member(fed):
    assert_matches_reference(quadratic_clients(5), hyper(steps=30, fine_tune_start=20), fed)


def _work_per_step(monkeypatch, hp):
    """The MLP stack's passes and the ``assign_rows`` calls of a hard run on 3 clients, as
    one Counter for f0 and then one per step: its pin, its step and its objective."""
    events = []

    def counted(name):
        original = getattr(losses._MlpRows, name)

        def call(self, x):
            events.append(name)
            return original(self, x)
        return call

    for name in ("gradient", "value", "value_and_grad"):
        monkeypatch.setattr(losses._MlpRows, name, counted(name))

    def assign(y, mids):
        events.append("assign")
        return quantizer.assign_rows(y, mids)

    monkeypatch.setattr(losses, "assign_rows", assign)
    monkeypatch.setattr(federated, "assign_rows", assign)
    pin = federated._pin

    def step_starts(*args):
        events.append("|")
        return pin(*args)

    monkeypatch.setattr(federated, "_pin", step_starts)
    federated._train(mlp_clients([4, 8, 4]), hp, federated=True)
    return [Counter(part.split()) for part in " ".join(events).split("|")]


def _counts(gradient=0, value_and_grad=0, value=0, assign=0):
    return Counter(gradient=gradient, value_and_grad=value_and_grad, value=value, assign=assign)


@pytest.mark.parametrize("changes, want", [
    # every full-batch step that pins nothing takes its x-gradient from the objective at
    # the point it starts from, f0 included: 1 gradient pass (the center step's), no
    # value pass and 6 assignments; the last objective feeds no step, and the run's
    # x_hard adds 2 assignments
    ({}, [_counts(value_and_grad=2, assign=2)] + [_counts(1, 2, 0, 6)] * 5
     + [_counts(1, 0, 2, 8)]),
    # minibatch steps take their gradients on other rows: 3 passes, 2 values, 8 assignments
    ({"batch_size": 5}, [_counts(value=2, assign=2)] + [_counts(3, 0, 2, 8)] * 5
     + [_counts(3, 0, 2, 10)]),
    # the pin at step 3 snaps x (2 assignments), so the objective before it carries
    # nothing; pinned rows skip the x-prox's assignments from then on
    ({"fine_tune_start": 3}, [_counts(value_and_grad=2, assign=2)] + [_counts(1, 2, 0, 6)] * 2
     + [_counts(1, 0, 2, 6), _counts(3, 2, 0, 8), _counts(1, 2, 0, 4), _counts(1, 0, 2, 6)]),
    # a pin at step 0 leaves f0 value-only
    ({"fine_tune_start": 0}, [_counts(value=2, assign=2), _counts(3, 2, 0, 8)]
     + [_counts(1, 2, 0, 4)] * 4 + [_counts(1, 0, 2, 6)]),
    # one step: f0 carries into it, and its objective is the last
    ({"steps": 1}, [_counts(value_and_grad=2, assign=2), _counts(1, 0, 2, 8)]),
], ids=["full-batch", "minibatch", "pin", "pin-at-start", "one-step"])
def test_loss_passes_and_assignments_per_step(changes, want, monkeypatch):
    got = _work_per_step(monkeypatch, hyper(**{"steps": 6, **changes}))
    assert [+c for c in got] == [+c for c in want]


def test_workspaces_hold_no_more_than_six_planes(monkeypatch):
    # the run's MLP workspaces hold the hidden layer and its delta, two (rows, classes)
    # planes and two per-row vectors, plus at most one more (rows, classes) plane per key
    monkeypatch.setattr(losses, "_MLP_WORKSPACES", {})
    federated._train(mlp_clients([4, 8, 4]), hyper(steps=6), federated=True)
    assert losses._MLP_WORKSPACES
    for (n, rows, n_hid, n_out), ws in losses._MLP_WORKSPACES.items():
        today = 8 * n * rows * (2 * n_hid + 2 * n_out + 2)
        assert sum(a.nbytes for a in ws) <= today + 8 * n * rows * n_out


def test_zero_steps():
    assert_matches_reference(mlp_clients([8, 4, 2]), hyper(steps=0))


def test_center_crossings_logged_once_per_crossing_row(caplog):
    # a large center step sends centers past their neighbours on most rows: the total
    # that _train reports once counts every (step, row, group) whose centers crossed, as
    # the reference's one warning per crossing prox_c call does
    hp = hyper(eta2=3.0, lambda_schedule=LambdaSchedule.constant(0.5), steps=6)
    clients = mlp_clients([8, 4, 8, 4])
    counts = []
    with caplog.at_level(logging.WARNING):
        federated._train(clients, hp, federated=True)
    [(total, _)] = crossing_reports(caplog.records)
    counts.append(total)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        reference_train(clients, hp, federated=True)
    counts.append(sum("center crossing" in r.getMessage() for r in caplog.records))
    assert counts[0] > 0 and counts[0] == counts[1]


@pytest.mark.parametrize("others, unstable, changes", [
    (None, 3.0, {"eta1": 0.9}),
    (1e-21, 1e300, {"eta1": 1e20, "lambda_p": 0.0}),
], ids=["past-the-threshold", "non-finite-iterate"])
def test_divergence_names_the_first_client_as_the_reference_does(others, unstable, changes):
    # client 3 alone is unstable: the error names it, at the same step, with the same text
    clients = quadratic_clients(5)
    if others is not None:
        clients = [replace(cs, loss=QuadraticLoss(cs.loss.a, np.full(5, others)))
                   for cs in clients]
    clients[3] = replace(clients[3], loss=QuadraticLoss(np.zeros(5), np.full(5, unstable)))
    hp = hyper(steps=60, **changes)
    with pytest.raises(DivergenceError) as stacked:
        federated._train(clients, hp, federated=True)
    with pytest.raises(DivergenceError) as reference:
        reference_train(clients, hp, federated=True)
    assert str(stacked.value).startswith("client 3 objective diverged at step ")
    assert str(stacked.value) == str(reference.value)


@pytest.mark.parametrize("odd, message", [
    (lambda cs: quadratic_clients(3, d=4)[2], "^clients disagree on the parameter layout$"),
    (lambda cs: replace(cs, pinned=[np.zeros(5, dtype=np.int64)]),
     "^clients disagree on whether their assignments are pinned$"),
], ids=["layout", "pinned"])
def test_clients_must_stack(odd, message):
    clients = quadratic_clients(3)
    clients[2] = odd(clients[2])
    with pytest.raises(ValueError, match=message):
        federated._train(clients, hyper(), federated=False)


_DIGESTS = """
import hashlib, json, sys
from qupel import cli, federated
from helpers import reference_train

seen = {}
train = federated._train

def spy(clients, hp, **kw):
    seen.update(clients=clients, hp=hp)
    return train(clients, hp, **kw)

federated._train = spy
cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])

def digest(results):
    h = hashlib.sha256()
    for r in results:
        for a in [r.x_final, r.x_hard, *(c.values for c in r.centers_final)]:
            h.update(a.tobytes())
        h.update(json.dumps(r.history).encode())
    return h.hexdigest()

stacked = train(seen["clients"], seen["hp"], federated=True).per_client
reference = reference_train(seen["clients"], seen["hp"], federated=True)[0]
print(json.dumps({"stacked": digest(stacked), "reference": digest(reference)}))
"""


def _dynamic_arch() -> bool:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in str(blas.get("openblas configuration", ""))


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64") or not _dynamic_arch(),
                    reason="needs an x86-64 OpenBLAS built with DYNAMIC_ARCH")
@pytest.mark.parametrize("core, soft", [("Haswell", False), ("Sandybridge", False),
                                        ("Haswell", True), ("Sandybridge", True)],
                         ids=["Haswell", "Sandybridge", "Haswell-soft", "Sandybridge-soft"])
def test_stacked_and_reference_digests_agree_under_each_blas_kernel(core, soft, tmp_path):
    """``configs/qupel.json``, cut to 120 steps with fine-tuning from step 96, run under a
    forced OpenBLAS kernel: the stacked and the per-client trainers give equal digests. In
    soft mode (sharpness 8) the stacked batched products meet the per-row ones."""
    cfg = json.loads((ROOT / "configs" / "qupel.json").read_text())
    cfg["hyper"].update(steps=120, fine_tune_start=96)
    if soft:
        cfg["quantization"].update(hard_limit=False, sharpness=8.0)
    (tmp_path / "qupel.json").write_text(json.dumps(cfg))
    env = dict(os.environ, OPENBLAS_CORETYPE=core,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    env.pop("QUPEL_SEED", None)
    out = subprocess.run([sys.executable, "-c", _DIGESTS, str(tmp_path / "qupel.json"),
                          str(tmp_path / "out")], env=env, capture_output=True, text=True,
                         check=True, timeout=300)
    digests = json.loads(out.stdout.strip().splitlines()[-1])
    assert digests["stacked"] == digests["reference"]
